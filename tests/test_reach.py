"""Every function defined in ``src/hmts`` earns its place: the command
line reaches it, the README names it as API, or ``ALLOWED`` says why it
stays.

The commands run in process under ``sys.setprofile``, on small inputs,
and every Python function call into the package is recorded.
"""

import json
import re
import sys
from inspect import CO_NEWLOCALS
from importlib import resources
from pathlib import Path

import numpy as np

import hmts
from hmts import capacity, channel, cli

README = Path(__file__).resolve().parents[1] / "README.md"

# functions that neither a command reaches nor the README names, each
# with the reason it stays
ALLOWED = {
    "bits_per_symbol": "a Constellation property beside stream_bits, for library callers",
    "build_uniform": "the uniform constellations that the threshold-table checks will build",
    "provenance": "whether a ModCod row is standard or MI-estimated, for table reports",
    "energy_fraction": "the energy equation that acceptance criteria 1 and 2 check",
}


def defined_functions():
    """(file, first line, name) of every function and method in the
    package's source, nested ones included; class bodies, comprehensions
    and lambdas are not functions here."""
    found = set()
    for path in sorted(Path(hmts.__file__).parent.glob("*.py")):
        module = sys.modules[f"hmts.{path.stem}" if path.stem != "__init__" else "hmts"]
        stack = [compile(path.read_text(), module.__file__, "exec")]
        while stack:
            code = stack.pop()
            for const in code.co_consts:
                if hasattr(const, "co_code"):
                    stack.append(const)
                    if const.co_flags & CO_NEWLOCALS and not const.co_name.startswith("<"):
                        found.add((const.co_filename, const.co_firstlineno, const.co_name))
    return found


def run_commands(tmp_path):
    """Run every CLI command on small inputs; returns the exit codes."""
    data = resources.files("hmts.data")
    table = str(data.joinpath("dvbs2_thresholds.csv"))
    weather = str(data.joinpath("weather_cdf.csv"))
    config = tmp_path / "het.json"
    config.write_text(json.dumps({
        "mode": "heterogeneous",
        "scenario": {
            "n_receivers": 20, "n_trials": 2, "snr_max_grid": [7.0, 13.0],
            "strategies": ["A", "B", "C", "D"], "professional_share_grid": [0.5],
            "professional_weight": 2,
        },
    }))
    out = ["--out-dir", str(tmp_path)]
    snrs = ",".join(f"{s:.3f}" for s in np.random.default_rng(3).uniform(0, 20, 1000))
    population = tmp_path / "populations" / "population_snr7_share0.5_trial0.csv"
    commands = [
        ["simulate", "--config", str(config), "--table", table, "--weather", weather,
         "--dump-populations", *out],
        ["rates", "pair", "--snr1", "7", "--snr2", "10", *out],
        ["rates", "pair", "--snr1", "-20", "--snr2", "5", *out],  # nothing decodes: exit 3
        ["rates", "grid", "--min", "4", "--max", "12", "--step", "0.5", *out],
        ["pairing", "--strategy", "B", "--snrs", snrs, *out],
        ["pairing", "--strategy", "C", "--snrs", str(population), *out],
        ["constellation", "--rho", "0.8", "--gamma", "2.3", "--theta", "28.4", *out],
        ["thresholds", "estimate", "--rho", "0.8", "--rates", "1/2", "--quality", "1000", *out],
    ]
    return [cli.main(argv) for argv in commands]


def test_every_function_is_reached_documented_or_allowed(tmp_path, monkeypatch, capsys):
    # caches that an earlier test may have filled would hide their misses
    channel.beam_edge_angle.cache_clear()
    monkeypatch.setattr(capacity, "_last_curve", (None, None))
    reached = set()

    def record(frame, event, arg):
        if event == "call":
            code = frame.f_code
            reached.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(record)
    try:
        codes = run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0, 0, 3, 0, 0, 0, 0, 0]

    functions = defined_functions()
    readme = set(re.findall(r"\w+", " ".join(re.findall(r"`([^`]*)`", README.read_text()))))
    unreached = {name for _, _, name in functions - reached}
    assert "_walk" not in unreached  # the pairing input is large enough for B's walk
    assert sorted(unreached - readme - ALLOWED.keys()) == []
    # an entry whose function is gone or now reached is stale
    assert sorted(ALLOWED.keys() - unreached) == []
