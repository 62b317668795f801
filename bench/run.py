"""Benchmark for the hmts CLI: four workloads, each run in its own
single-threaded process, timed end to end, and checked for correct
output.

Usage (from the root of a checkout):

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` each workload prints ``setup_s``, ``ops_per_s`` and
``peak_rss_mb`` with their units; with ``--trace 1`` it prints the
per-layer counts and self times instead.  Either way it prints the
operations attempted and failed and the SHA-256 of each output CSV.  The
last line of a single workload's output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import checks
import tracer
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
TABLE = os.path.join(SRC, "hmts", "data", "dvbs2_thresholds.csv")
# a worker measures --seconds plus at most one round (about 7 s), then
# dumps populations; a whole run must end within 180 s
WORKER_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def run_worker(spec: dict, run_dir: str) -> tuple[dict, float]:
    """Run one workload in a fresh single-threaded process; return its
    result and its set-up time, counted from just before the spawn."""
    spec_path = os.path.join(run_dir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh, indent=1)
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    log_path = os.path.join(run_dir, "worker.log")
    with open(log_path, "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, os.path.join(BENCH_DIR, "worker.py"), spec_path],
                                cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        try:
            proc.wait(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{spec['workload']}: worker timed out after {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        with open(log_path) as fh:
            tail = fh.read()[-2000:]
        raise BenchError(f"{spec['workload']}: worker exited with {proc.returncode}:\n{tail}")
    with open(spec["result"]) as fh:
        result = json.load(fh)
    if os.path.commonpath([os.path.abspath(result["hmts_file"]), SRC]) != SRC:
        raise BenchError(f"hmts was imported from {result['hmts_file']}, not from {SRC}")
    return result, result["setup_done"] - t_spawn


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    run_dir = os.path.join(BENCH_DIR, "runs", name)
    shutil.rmtree(run_dir, ignore_errors=True)
    spec = workloads.make_spec(name, seed, run_dir)
    spec.update(seconds=seconds, trace=trace, result=os.path.join(run_dir, "result.json"))
    result, setup_s = run_worker(spec, run_dir)

    rounds = len(result["durations"])
    per_round = spec["ops_per_round"]
    attempted = rounds * per_round
    timed_s = sum(result["durations"])
    outcome = checks.check(spec, TABLE)
    # the checks read the last round's files; every round must have
    # succeeded and written the same bytes, or all its operations fail
    last = result["hashes"][-1]
    bad = sum(1 for ok, h in zip(result["ok"], result["hashes"]) if not ok or h != last)
    failed = len(outcome.failed) * (rounds - bad) + per_round * bad

    if trace:
        metrics = {k: {"value": result["trace"]["metrics"][k], "unit": u}
                   for k, u in tracer.METRICS.items()}
    else:
        values = {"setup_s": setup_s, "ops_per_s": attempted / timed_s,
                  "peak_rss_mb": result["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    record = {"correct": failed < attempted, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    print(f"{name}: seed {seed}, trace {trace}, {rounds} rounds of {per_round} ops "
          f"in {timed_s:.3f} s; attempted {attempted}, failed {failed}")
    for key, m in metrics.items():
        value = "not measured" if m["value"] is None else f"{m['value']:.6g} {m['unit']}"
        print(f"  {key:45s} {value}")
    if trace:
        print(f"  traced throughput: {attempted / timed_s:.6g} op/s")
    for file_name, digest in last.items():
        print(f"  sha256 {file_name}: {digest}")
    for line in outcome.notes + outcome.problems + [e.splitlines()[-1] for e in result["errors"]]:
        print(f"  {line}")
    if result["dump_ok"] is False:
        print("  the population-dumping pass failed")
    with open(os.path.join(run_dir, "record.json"), "w") as fh:
        json.dump({"workload": name, "seed": seed, "trace": trace, "durations": result["durations"],
                   "hashes": result["hashes"], **record}, fh, indent=1)
    print(json.dumps(record))
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "hmts", "__init__.py")) or not os.path.isfile(TABLE):
        print(f"error: no hmts source tree under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        records = [run_workload(n, args.seed, args.seconds, args.trace) for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
