"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter/configuration problems exit
with 2, degenerate receiver data exits with 3.
"""


class ParameterError(ValueError):
    """A geometry, configuration or argument value violates its constraints."""


class SymbolOverlapError(ParameterError):
    """A constellation geometry places two symbols on the same point."""


class TableError(ValueError):
    """A threshold table file is malformed or violates table invariants."""


class InvariantError(RuntimeError):
    """An internal invariant does not hold: a bug, not bad input."""


class UnreachableThresholdError(RuntimeError):
    """A stream never reaches the target spectral efficiency below 30 dB."""


class DegenerateRateError(RuntimeError):
    """One or more receivers cannot decode any available modcod.

    ``receivers`` carries the offending receiver indices when known.
    """

    def __init__(self, message: str, receivers: tuple[int, ...] = ()):
        super().__init__(message)
        self.receivers = tuple(receivers)
