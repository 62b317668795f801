"""Tests of the benchmark itself: each output check catches a corrupted
output, and the traced mode survives a renamed layer.

Run with ``python3 -m pytest bench``.  The program runs as a
subprocess on small inputs, so the whole file takes a few seconds.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
TABLE = os.path.join(SRC, "hmts", "data", "dvbs2_thresholds.csv")


def hmts(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    subprocess.run([sys.executable, "-m", "hmts.cli", *argv], check=True, env=env,
                   stdout=subprocess.DEVNULL)


def edit_csv(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def bump_last_digit(text):
    """The same number with its last printed digit changed by one."""
    mantissa, e, exponent = text.partition("e")
    k = max(i for i, c in enumerate(mantissa) if c.isdigit())
    digit = int(mantissa[k])
    return mantissa[:k] + str(digit - 1 if digit == 9 else digit + 1) + mantissa[k + 1:] + e + exponent


# -- simulate -------------------------------------------------------------

@pytest.fixture(scope="module")
def simulation(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("simulate")
    cfg = {"mode": "homogeneous", "seed": 3,
           "scenario": {"n_receivers": 40, "n_trials": 2, "snr_max_grid": [10.0, 13.0],
                        "strategies": ["A", "B", "C", "D"], "rho_set": [0.75, 0.8, 0.85, 0.9]}}
    with open(tmp / "config.json", "w") as fh:
        json.dump(cfg, fh)
    hmts("simulate", "--config", str(tmp / "config.json"), "--out-dir", str(tmp / "out"))
    hmts("simulate", "--config", str(tmp / "config.json"), "--out-dir", str(tmp / "dump"),
         "--dump-populations")
    return {"workload": "simulate_homogeneous", "seed": 1, "out_dir": str(tmp / "out"),
            "check": {"config": cfg, "dump_config": cfg, "dump_dir": str(tmp / "dump")}}


def fresh(spec, tmp_path):
    """A copy of the outputs that a test may corrupt."""
    spec = json.loads(json.dumps(spec))
    for key, holder in (("out_dir", spec), ("dump_dir", spec.get("check", {}))):
        if key in holder:
            dest = tmp_path / os.path.basename(holder[key])
            shutil.copytree(holder[key], dest)
            holder[key] = str(dest)
    return spec


def test_simulate_outputs_pass(simulation, tmp_path):
    outcome = checks.check(fresh(simulation, tmp_path), TABLE)
    assert outcome.failed == set(), outcome.problems
    assert "recomputed 4 dumped trials" in outcome.notes[0]


@pytest.mark.parametrize("strategy,column", [("A", 5), ("D", 5), ("A", 4), ("B", 4)])
def test_simulate_catches_last_digit_change(simulation, tmp_path, strategy, column):
    spec = fresh(simulation, tmp_path)

    def corrupt(lines):
        for k, line in enumerate(lines):
            f = line.split(",")
            if f[1] == strategy and f[3] == "1" and f[0] == "13":
                f[column] = bump_last_digit(f[column])
                lines[k] = ",".join(f)
                return lines
        raise AssertionError("row not found")

    # the same wrong digit in both passes, so only the recomputation and
    # the per-trial identity can see it
    edit_csv(os.path.join(spec["out_dir"], "report.csv"), corrupt)
    edit_csv(os.path.join(spec["check"]["dump_dir"], "report.csv"), corrupt)
    outcome = checks.check(spec, TABLE)
    assert (13.0, 0.0, 1, strategy) in outcome.failed, outcome.problems


def test_simulate_counts_a_dropped_row(simulation, tmp_path):
    spec = fresh(simulation, tmp_path)
    edit_csv(os.path.join(spec["out_dir"], "report.csv"), lambda lines: lines[:-1])
    outcome = checks.check(spec, TABLE)
    assert outcome.failed == {(13.0, 0.0, 1, "D")}


# -- rates grid -----------------------------------------------------------

@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("grid")
    g = {"snr_min": -3.013, "snr_max": 11.987, "step": 0.5}
    with open(tmp / "config.json", "w") as fh:
        json.dump({"grid": g}, fh)
    hmts("rates", "grid", "--config", str(tmp / "config.json"), "--out-dir", str(tmp / "out"))
    return {"workload": "rates_grid", "seed": 1, "out_dir": str(tmp / "out"), "check": {"grid": g}}


def _edit_grid_row(spec, edit):
    def apply(lines):
        for k, line in enumerate(lines[1:], start=1):
            f = line.split(",")
            if f[2] and float(f[2]) > 1e-3:
                lines[k] = edit(f)
                return lines
        raise AssertionError("no gain above 1e-3")

    edit_csv(os.path.join(spec["out_dir"], "rates_gain_grid.csv"), apply)


def test_grid_outputs_pass(grid, tmp_path):
    outcome = checks.check(fresh(grid, tmp_path), TABLE)
    assert outcome.failed == set(), outcome.problems
    assert outcome.notes == ["496 rows expected; recomputed 400 gains"]


def test_grid_catches_a_negative_gain(grid, tmp_path):
    spec = fresh(grid, tmp_path)
    _edit_grid_row(spec, lambda f: f"{f[0]},{f[1]},-0.01")
    outcome = checks.check(spec, TABLE)
    assert len(outcome.failed) == 1
    assert "negative gain" in outcome.problems[0]


def test_grid_catches_a_blank_gain(grid, tmp_path):
    spec = fresh(grid, tmp_path)
    _edit_grid_row(spec, lambda f: f"{f[0]},{f[1]},")
    assert len(checks.check(spec, TABLE).failed) == 1


def test_grid_catches_a_last_digit_change(grid, tmp_path):
    spec = fresh(grid, tmp_path)
    _edit_grid_row(spec, lambda f: f"{f[0]},{f[1]},{bump_last_digit(f[2])}")
    assert len(checks.check(spec, TABLE).failed) == 1


def test_grid_counts_a_dropped_row(grid, tmp_path):
    spec = fresh(grid, tmp_path)
    edit_csv(os.path.join(spec["out_dir"], "rates_gain_grid.csv"), lambda lines: lines[:-1])
    outcome = checks.check(spec, TABLE)
    assert len(outcome.failed) == 1
    assert "missing row" in outcome.problems[0]


# -- thresholds -----------------------------------------------------------

@pytest.fixture(scope="module")
def thresholds(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("thresholds")
    rates = ["3/4", "1/4"]
    hmts("thresholds", "estimate", "--rho", "0.8", "--rates", ",".join(rates), "--seed", "0",
         "--out-dir", str(tmp / "out"))
    return {"workload": "thresholds_estimate", "seed": 1, "out_dir": str(tmp / "out"),
            "check": {"rho": 0.8, "rates": rates}}


def test_thresholds_pass_and_equal_the_shipped_rows(thresholds, tmp_path):
    outcome = checks.check(fresh(thresholds, tmp_path), TABLE)
    assert outcome.failed == set(), outcome.problems
    assert outcome.notes == ["4 of 4 estimated thresholds equal the shipped table's rows"]


@pytest.mark.parametrize("shift", [0.3, -0.3])
def test_thresholds_catch_a_moved_threshold(thresholds, tmp_path, shift):
    spec = fresh(thresholds, tmp_path)

    def move(lines):
        f = lines[1].split(",")
        f[3] = f"{float(f[3]) + shift:.2f}"
        return [lines[0], ",".join(f)] + lines[2:]

    edit_csv(os.path.join(spec["out_dir"], "thresholds_estimated.csv"), move)
    assert len(checks.check(spec, TABLE).failed) == 1


def test_thresholds_count_a_dropped_row(thresholds, tmp_path):
    spec = fresh(thresholds, tmp_path)
    edit_csv(os.path.join(spec["out_dir"], "thresholds_estimated.csv"), lambda lines: lines[:-1])
    assert len(checks.check(spec, TABLE).failed) == 1


# -- tracing --------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    layers = ["cli.main", "sim.pair_rate", "rates.operating_points"]
    layer = np.array([0, 1, 2, 1])
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 6.0])
    m = tracer.derive_metrics(layers, layer, parent, start, end, rounds=1)
    assert m["cli.main.self_s"] == 6.0
    assert m["sim.pair_rate.self_s"] == 3.0
    assert m["sim.pair_rate.calls"] == 2
    assert m["sim.pair_rate.hit_ratio"] == 0.5
    assert m["rates.operating_points.self_s"] == 1.0
    assert m["sim.run_trial.calls"] is None


def test_trace_reports_a_renamed_layer_as_not_measured(tmp_path):
    src = tmp_path / "src"
    shutil.copytree(os.path.join(SRC, "hmts"), src / "hmts",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for name, old, new in (("rates.py", "operating_points", "operating_points_v2"),
                           ("sim.py", "operating_points", "operating_points_v2"),
                           ("pairing.py", "strategy_b", "strategy_b_v2")):
        path = src / "hmts" / name
        path.write_text(re.sub(rf"\b{old}\b", new, path.read_text()))
    cfg = {"mode": "homogeneous", "seed": 1,
           "scenario": {"n_receivers": 20, "n_trials": 1, "snr_max_grid": [10.0],
                        "strategies": ["A", "B"]}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    spec = {"trace": 1, "seconds": 0.01, "out_dir": str(tmp_path / "out"),
            "argv": ["simulate", "--config", str(tmp_path / "config.json"),
                     "--out-dir", str(tmp_path / "out")],
            "outputs": ["report.csv"], "dump_argv": None,
            "result": str(tmp_path / "result.json")}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), str(tmp_path / "spec.json")],
                   check=True, env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.DEVNULL)
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["ok"] == [True]
    trace = result["trace"]
    assert trace["not_measured"] == ["rates.operating_points"]
    m = trace["metrics"]
    assert m["rates.operating_points.calls"] is None
    assert m["sim.pair_rate.hit_ratio"] is None
    assert m["sim.pair_rate.calls"] > 0
    # strategy B is found through pairing.STRATEGIES under its new name
    assert m["pairing.strategy_b.calls"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("runs", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "rates_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
