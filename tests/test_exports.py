"""Every name a module of the package exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import hmts

MODULES = [
    module
    for module in (
        hmts,
        *(importlib.import_module(f"hmts.{m.name}") for m in pkgutil.iter_modules(hmts.__path__)),
    )
    if hasattr(module, "__all__")
]


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing
