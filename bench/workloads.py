"""The benchmark's four workloads: their inputs, made from a seed, and the
CLI invocations that make up one round of each.

A round is one ``hmts`` CLI invocation.  A run repeats the same round
until the measured time is used up, so every round does the same
operations and writes the same bytes.  The configurations are written
out here rather than read from the package's presets, so that editing a
preset does not change the workload.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np

CODE_RATES = ("1/4", "1/3", "2/5", "1/2", "3/5", "2/3", "3/4", "4/5", "5/6", "8/9", "9/10")

# the homogeneous_500 preset of the package, with 10 trials per round;
# rho_set is the package's default, written out
HOMOGENEOUS = {
    "mode": "homogeneous",
    "scenario": {
        "n_receivers": 500,
        "n_trials": 10,
        "snr_max_grid": [7.0, 10.0, 13.0, 16.0, 18.0],
        "strategies": ["A", "B", "C", "D"],
        "rho_set": [0.75, 0.8, 0.85, 0.9],
    },
}

# the heterogeneous_500 preset of the package, as shipped
HETEROGENEOUS = {
    "mode": "heterogeneous",
    "scenario": {
        "n_receivers": 500,
        "n_trials": 100,
        "snr_max_grid": [10.0, 13.0],
        "strategies": ["A"],
        "professional_share_grid": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
        "professional_weight": 1,
        "rho_set": [0.75, 0.8, 0.85, 0.9],
    },
}

# trials per (snr_max, share) in the untimed pass that dumps populations
# for the output checks; populations depend on (seed, snr_max, share,
# trial) only, so these are the first trials of every timed round
DUMP_TRIALS = 2

GRID_SPAN_DB = (-3.0, 20.0)
GRID_STEP_DB = 0.03

THRESHOLD_RHO = 0.8
# the estimator seed that produced the shipped ρ = 0.80 rows
THRESHOLD_ESTIMATOR_SEED = 0

WORKLOADS = (
    "simulate_homogeneous",
    "simulate_heterogeneous",
    "rates_grid",
    "thresholds_estimate",
)


def _write_json(path, obj) -> str:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=1)
    return path


def _simulate(run_dir, config, seed):
    cfg = copy.deepcopy(config)
    cfg["seed"] = seed
    sc = cfg["scenario"]
    shares = sc.get("professional_share_grid") if cfg["mode"] == "heterogeneous" else [0.0]
    ops = sc["n_trials"] * len(sc["snr_max_grid"]) * len(shares) * len(sc["strategies"])
    cfg_path = _write_json(os.path.join(run_dir, "config.json"), cfg)
    dump = copy.deepcopy(cfg)
    dump["scenario"]["n_trials"] = min(DUMP_TRIALS, sc["n_trials"])
    dump_path = _write_json(os.path.join(run_dir, "config_dump.json"), dump)
    out = os.path.join(run_dir, "out")
    dump_out = os.path.join(run_dir, "dump")
    return {
        "argv": ["simulate", "--config", cfg_path, "--out-dir", out],
        "outputs": ["report.csv", "summary.csv"],
        "ops_per_round": ops,
        "dump_argv": ["simulate", "--config", dump_path, "--out-dir", dump_out,
                      "--dump-populations"],
        "check": {"config": cfg, "dump_config": dump, "dump_dir": dump_out},
    }


def _rates_grid(run_dir, seed):
    # the seed shifts the grid by up to one step, so no grid point sits
    # on a 0.01 dB threshold value by construction
    u = float(np.random.default_rng([seed, 1]).random())
    lo = GRID_SPAN_DB[0] - GRID_STEP_DB * u
    hi = lo + (GRID_SPAN_DB[1] - GRID_SPAN_DB[0])
    grid = {"snr_min": lo, "snr_max": hi, "step": GRID_STEP_DB}
    cfg_path = _write_json(os.path.join(run_dir, "config.json"), {"grid": grid})
    n_points = int(round((hi - lo) / GRID_STEP_DB)) + 1
    return {
        "argv": ["rates", "grid", "--config", cfg_path, "--out-dir", os.path.join(run_dir, "out")],
        "outputs": ["rates_gain_grid.csv"],
        "ops_per_round": n_points * (n_points + 1) // 2,
        "dump_argv": None,
        "check": {"grid": grid},
    }


def _thresholds(run_dir, seed):
    # the seed orders the code rates; the estimator seed stays fixed, so
    # every run can be compared with the shipped table
    order = np.random.default_rng([seed, 2]).permutation(len(CODE_RATES))
    rates = [CODE_RATES[k] for k in order]
    return {
        "argv": ["thresholds", "estimate", "--rho", str(THRESHOLD_RHO),
                 "--rates", ",".join(rates), "--seed", str(THRESHOLD_ESTIMATOR_SEED),
                 "--out-dir", os.path.join(run_dir, "out")],
        "outputs": ["thresholds_estimated.csv"],
        "ops_per_round": 2 * len(rates),
        "dump_argv": None,
        "check": {"rho": THRESHOLD_RHO, "rates": rates},
    }


def make_spec(workload: str, seed: int, run_dir: str) -> dict:
    """Write the workload's input files under ``run_dir`` and return the
    run specification the worker and the checks read."""
    os.makedirs(run_dir, exist_ok=True)
    if workload == "simulate_homogeneous":
        spec = _simulate(run_dir, HOMOGENEOUS, seed)
    elif workload == "simulate_heterogeneous":
        spec = _simulate(run_dir, HETEROGENEOUS, seed)
    elif workload == "rates_grid":
        spec = _rates_grid(run_dir, seed)
    elif workload == "thresholds_estimate":
        spec = _thresholds(run_dir, seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    spec.update(workload=workload, seed=seed, out_dir=os.path.join(run_dir, "out"))
    return spec
