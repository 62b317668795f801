"""One benchmark run of one workload, in its own process.

Usage: python3 worker.py SPEC.json

The set-up (importing ``hmts`` and loading the shipped threshold table
and weather CDF) comes first, before the worker imports anything else,
so that the parent can time it from the process's start.  Then the round
(one CLI invocation) repeats until the measured time is used up; only
the CLI call is inside the timed region.  After the timed rounds come
the peak resident memory, the untimed pass that dumps populations for
the output checks, and the result file.
"""

import sys
import time


def set_up() -> float:
    """Import hmts and load its shipped data; return when that ended."""
    from hmts import capacity, channel

    capacity.default_table()
    channel.default_weather_cdf()
    return time.monotonic()


def main(spec_path: str, setup_done: float) -> None:
    import hashlib
    import json
    import os
    import resource
    import traceback

    import hmts
    import hmts.cli as cli

    def invoke(argv) -> bool:
        try:
            return cli.main(argv) == 0
        except (Exception, SystemExit):
            errors.append(traceback.format_exc())
            return False

    def sha256(path):
        try:
            with open(path, "rb") as fh:
                return hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            return None

    with open(spec_path) as fh:
        spec = json.load(fh)
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    durations, ok, hashes, errors = [], [], [], []
    clock = time.perf_counter
    while True:
        if tracer is not None:
            tracer.begin_round()
        t0 = clock()
        ok.append(invoke(spec["argv"]))
        durations.append(clock() - t0)
        hashes.append({name: sha256(os.path.join(spec["out_dir"], name)) for name in spec["outputs"]})
        if sum(durations) >= spec["seconds"]:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = {"metrics": tracer.metrics(len(durations)), "not_measured": tracer.not_measured}
        tracer.save(os.path.join(os.path.dirname(spec_path), "spans.npz"))
    dump_ok = invoke(spec["dump_argv"]) if spec["dump_argv"] else None
    result = {
        "setup_done": setup_done,
        "hmts_file": hmts.__file__,
        "durations": durations,
        "ok": ok,
        "hashes": hashes,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb,
        "dump_ok": dump_ok,
        "trace": trace,
    }
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], set_up())
