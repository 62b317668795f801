"""Command-line front end.

Subcommands: constellation, thresholds, rates, pairing, simulate.  All
output is CSV, written atomically.  Exit codes: 0 success, 2 invalid
parameters or configuration, 3 degenerate receiver data.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import fields
from fractions import Fraction
from importlib import resources

import numpy as np

from . import capacity, channel, pairing, rates, sim
from ._csv import atomic_writer
from .constellation import Apsk16Params, build_16apsk, solution_set
from .errors import DegenerateRateError, ParameterError, TableError


def _resolve_config_path(path_or_name: str) -> str:
    if os.path.exists(path_or_name):
        return path_or_name
    name = path_or_name if path_or_name.endswith(".json") else path_or_name + ".json"
    ref = resources.files("hmts.data.configs").joinpath(name)
    if ref.is_file():
        with resources.as_file(ref) as p:
            return str(p)
    raise ParameterError(f"no such config file or preset: {path_or_name}")


# setting -> (config section, config key, default), "" being the top
# level of the config file; a table or weather path of None means the
# shipped file
_SETTINGS = {
    "seed": ("", "seed", 1),
    "out_dir": ("", "out_dir", "."),
    "table": ("", "thresholds_path", None),
    "weather": ("", "weather_path", None),
    "mode": ("", "mode", "homogeneous"),
    "snr1": ("pair", "snr1", None),
    "snr2": ("pair", "snr2", None),
    "min": ("grid", "snr_min", 4.0),
    "max": ("grid", "snr_max", 12.0),
    "step": ("grid", "step", 0.5),
}


def load_config(path_or_name: str) -> dict:
    """The --config JSON file, every section an object with known keys:
    those of ``_SETTINGS`` and, for the scenario and beam sections, the
    fields of ``sim.ScenarioConfig`` (the seed is top-level) and
    ``channel.BeamConfig``."""
    path = _resolve_config_path(path_or_name)
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParameterError(f"{path}: invalid JSON: {exc}") from None
    schema = {
        "": set(),  # the top level, checked first
        "scenario": {f.name for f in fields(sim.ScenarioConfig)} - {"seed"},
        "beam": {f.name for f in fields(channel.BeamConfig)},
    }
    for section, key, _ in _SETTINGS.values():
        schema.setdefault(section, set()).add(key)
    schema[""] |= schema.keys() - {""}
    for section, keys in schema.items():
        body = cfg.get(section, {}) if section else cfg
        name = section or "top level"
        if not isinstance(body, dict):
            raise ParameterError(f"{path}: {name} must be a JSON object, got {body!r}")
        unknown = set(body) - keys
        if unknown:
            raise ParameterError(f"{path}: unknown {name} keys {sorted(unknown)}")
    return cfg


def resolve_settings(args) -> None:
    """Set every setting on ``args``: the flag given on the command line,
    else the --config file, else the default; check the numbers, build
    the scenario and beam and load the table and weather CDF, so the
    subcommands read only ``args``."""
    cfg = load_config(args.config) if "config" in args else {}
    for name, (section, key, default) in _SETTINGS.items():
        if name not in args:
            value = (cfg.get(section, {}) if section else cfg).get(key)
            setattr(args, name, default if value is None else value)
    if args.mode not in ("homogeneous", "heterogeneous"):
        raise ParameterError(f"unknown mode {args.mode!r}")
    for name in ("out_dir", "table", "weather"):
        value = getattr(args, name)
        if value is not None and not isinstance(value, str):
            raise ParameterError(f"{_SETTINGS[name][1]} must be a path string, got {value!r}")
    for name in ("snr1", "snr2", "min", "max", "step"):
        value = getattr(args, name)
        if value is None:
            continue
        try:
            # JSON true and false arrive as bool, a subclass of int
            finite = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):  # not a number, or an int beyond float range
            finite = False
        if not finite:
            raise ParameterError(f"{name} must be a finite number, got {value!r}")
    if isinstance(args.seed, bool) or not isinstance(args.seed, int) or args.seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {args.seed!r}")
    if args.step <= 0:
        raise ParameterError(f"step must be > 0, got {args.step}")
    if args.min > args.max:
        raise ParameterError(f"grid min {args.min} exceeds grid max {args.max}")
    scenario = {k: tuple(v) if isinstance(v, list) else v
                for k, v in cfg.get("scenario", {}).items()}
    args.scenario = sim.ScenarioConfig(**scenario, seed=args.seed)
    args.beam = channel.BeamConfig(**cfg.get("beam", {}))
    args.table = (capacity.load_thresholds(args.table) if args.table
                  else capacity.default_table())
    args.weather = (channel.WeatherCdf.from_csv(args.weather) if args.weather
                    else channel.default_weather_cdf())


def _out_path(args, name: str) -> str:
    return os.path.join(args.out_dir, name)


def cmd_constellation(args) -> int:
    wrote = []
    for rho in args.rho or []:
        sol = solution_set(rho, n_samples=args.samples, gamma_cap=args.gamma_cap)
        path = _out_path(args, f"solution_rho{rho:g}.csv")
        sol.to_csv(path)
        wrote.append(path)
    if args.gamma is not None or args.theta is not None:
        if args.gamma is None or args.theta is None:
            raise ParameterError("--gamma and --theta must be given together")
        c = build_16apsk(Apsk16Params(gamma=args.gamma, theta_deg=args.theta))
        path = _out_path(args, f"constellation_g{args.gamma:g}_t{args.theta:g}.csv")
        c.to_csv(path)
        wrote.append(path)
    if not wrote:
        raise ParameterError("nothing to do: give --rho and/or --gamma/--theta")
    for path in wrote:
        print(path)
    return 0


def _reject_repeats(option: str, values) -> None:
    seen = set()
    for value in values:
        if value in seen:
            raise ParameterError(f"{option} repeats {value}")
        seen.add(value)


def cmd_thresholds(args) -> int:
    # the table would refuse a repeat only after every threshold is
    # estimated, so repeats and a rho without an adopted geometry are
    # rejected before the first
    ids = [capacity.hierarchical_modulation_id(rho) for rho in args.rho]
    _reject_repeats("--rho", ids)
    _reject_repeats("--rates", args.rates)
    for mod_id in ids:
        capacity.hierarchical_constellation(mod_id)
    entries = []
    for rho in args.rho:
        entries.extend(
            capacity.estimate_hierarchical_thresholds(
                rho, args.rates, quality=args.quality,
                loss_margin_db=args.margin, seed=args.seed,
            )
        )
    path = _out_path(args, args.out or "thresholds_estimated.csv")
    capacity.save_thresholds(capacity.ThresholdTable(entries), path)
    print(path)
    return 0


def cmd_rates_pair(args) -> int:
    snr1, snr2, table = args.snr1, args.snr2, args.table
    if snr1 is None or snr2 is None:
        raise ParameterError("rates pair requires --snr1 and --snr2")
    points = rates.operating_points(snr1, snr2, table)
    r_ts = rates.ts_rate_two(points[0].r1, points[1].r2)
    r_hm = rates.equal_rate_point(points)
    gain = rates.hierarchical_gain(r_hm, r_ts)
    hull = rates.augmented_hull([(p.r1, p.r2) for p in points])
    path = _out_path(args, f"rates_pair_{snr1:g}_{snr2:g}.csv")
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["kind", "r1", "r2", "source"])
        for p in points:
            writer.writerow(["point", f"{p.r1:.10g}", f"{p.r2:.10g}", p.source])
        for x, y in hull:
            writer.writerow(["hull", f"{x:.10g}", f"{y:.10g}", ""])
        writer.writerow(["r_ts", f"{r_ts:.10g}", f"{r_ts:.10g}", ""])
        writer.writerow(["r_hm", f"{r_hm:.10g}", f"{r_hm:.10g}", ""])
        writer.writerow(["gain", f"{gain:.10g}", "", ""])
    print(path)
    return 0


def cmd_rates_grid(args) -> int:
    cache = sim.PairRateCache(args.table)
    n = int(round((args.max - args.min) / args.step))
    grid = args.min + np.arange(n + 1) * args.step
    labels = [f"{s:.10g}" for s in grid.tolist()]
    single = cache.best_single_rate(grid)
    path = _out_path(args, "rates_gain_grid.csv")
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr1_db", "snr2_db", "gain"])
        for s1, label, r1 in zip(grid.tolist(), labels, single.tolist()):
            cols = np.flatnonzero(grid >= s1)
            served = (single[cols] > 0) & (r1 > 0)
            gains = np.zeros(len(cols))
            r_ts = rates.ts_rate_two(r1, single[cols[served]])
            gains[served] = rates.hierarchical_gain(cache.pair_rate(s1, grid[cols[served]]), r_ts)
            writer.writerows(
                (label, labels[c], f"{g:.10g}" if ok else "")
                for c, g, ok in zip(cols.tolist(), gains.tolist(), served.tolist())
            )
    print(path)
    return 0


def _parse_snrs(value: str) -> list[float]:
    if os.path.exists(value):
        return channel.read_population(value).snr_db.tolist()
    try:
        return [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse SNR list {value!r}") from None


def _parse_code_rates(value: str) -> list[Fraction]:
    try:
        code_rates = [Fraction(r) for r in value.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse code rates {value!r}") from None
    # every rate is checked before the first threshold is estimated
    for rate in code_rates:
        if not 0 < rate <= 1:
            raise argparse.ArgumentTypeError(f"code rate must lie in (0, 1], got {rate}")
    return code_rates


def cmd_pairing(args) -> int:
    snrs = _parse_snrs(args.snrs)
    plan = pairing.run_strategy(args.strategy, snrs, seed=args.seed)
    path = _out_path(args, f"pairing_{args.strategy}.csv")
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["receiver_i", "receiver_j", "snr_i_db", "snr_j_db", "delta_db"])
        for i, j in plan.pairs:
            writer.writerow(
                [i, j, f"{snrs[i]:.10g}", f"{snrs[j]:.10g}", f"{abs(snrs[i] - snrs[j]):.10g}"]
            )
        writer.writerow(["delta_avg", "", "", "", f"{plan.delta_avg:.10g}"])
    print(f"delta_avg = {plan.delta_avg:.6g} dB")
    print(path)
    return 0


def cmd_simulate(args) -> int:
    population_dir = _out_path(args, "populations") if args.dump_populations else None
    report = sim.run_scenario(
        args.scenario, mode=args.mode, table=args.table, weather=args.weather,
        beam=args.beam, population_dir=population_dir,
    )
    report_path = _out_path(args, "report.csv")
    summary_path = _out_path(args, "summary.csv")
    report.to_csv(report_path)
    report.summary_to_csv(summary_path)
    for row in sim.summarize(report):
        means = "  ".join(f"{s}={m:.4f}" for s, m in row["means"].items())
        print(f"snr_max={row['snr_max_db']:g} share={row['share']:g}  {means}")
    print(report_path)
    print(summary_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted before or after the subcommand;
    # SUPPRESS leaves a flag not given off the namespace, so that a
    # post-subcommand absence cannot clobber a pre-subcommand value and
    # resolve_settings can tell a flag from a default
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="global random seed")
    common.add_argument("--out-dir", default=argparse.SUPPRESS,
                        help="directory for output files")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON run configuration or preset name")
    common.add_argument("--table", default=argparse.SUPPRESS,
                        help="threshold table CSV")
    parser = argparse.ArgumentParser(
        prog="hmts",
        description="Hierarchical-modulation time sharing for satellite broadcast",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constellation", parents=[common],
                       help="emit solution curves and symbol files")
    p.add_argument("--rho", type=float, action="append",
                   help="HE energy fraction; repeatable")
    p.add_argument("--samples", type=int, default=512)
    p.add_argument("--gamma-cap", type=float, default=5.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--theta", type=float, default=None)
    p.set_defaults(func=cmd_constellation)

    p = sub.add_parser("thresholds", help="estimate hierarchical decoding thresholds")
    tsub = p.add_subparsers(dest="thresholds_command", required=True)
    pe = tsub.add_parser("estimate", parents=[common])
    pe.add_argument("--rho", type=float, action="append", required=True)
    pe.add_argument("--rates", type=_parse_code_rates, default=capacity.DVBS2_CODE_RATES)
    pe.add_argument("--quality", type=int, default=capacity.DEFAULT_MI_QUALITY)
    pe.add_argument("--margin", type=float, default=capacity.DEFAULT_LOSS_MARGIN_DB)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("rates", help="pair operating points or gain grids")
    rsub = p.add_subparsers(dest="rates_command", required=True)
    pp = rsub.add_parser("pair", parents=[common])
    pp.add_argument("--snr1", type=float, default=argparse.SUPPRESS)
    pp.add_argument("--snr2", type=float, default=argparse.SUPPRESS)
    pp.set_defaults(func=cmd_rates_pair)
    pg = rsub.add_parser("grid", parents=[common])
    pg.add_argument("--min", type=float, default=argparse.SUPPRESS)
    pg.add_argument("--max", type=float, default=argparse.SUPPRESS)
    pg.add_argument("--step", type=float, default=argparse.SUPPRESS)
    pg.set_defaults(func=cmd_rates_grid)

    p = sub.add_parser("pairing", parents=[common], help="pair receivers by SNR difference")
    p.add_argument("--strategy", choices=sorted(pairing.STRATEGIES), required=True)
    p.add_argument("--snrs", required=True,
                   help="comma-separated dB values or a population CSV path")
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("simulate", parents=[common], help="run a broadcast scenario")
    p.add_argument("--weather", default=argparse.SUPPRESS,
                   help="weather CDF CSV")
    p.add_argument("--dump-populations", action="store_true")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_settings(args)
        return args.func(args)
    except DegenerateRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.receivers:
            print(f"receivers: {list(exc.receivers)}", file=sys.stderr)
        return 3
    except (ParameterError, TableError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
