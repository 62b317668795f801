"""Command-line front end.

Subcommands: constellation, thresholds, rates, pairing, simulate.  All
output is CSV, written atomically.  Exit codes: 0 success, 2 invalid
parameters or configuration, 3 degenerate receiver data.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass, field, fields
from fractions import Fraction
from importlib import resources

from . import capacity, channel, pairing, rates, sim
from ._csv import atomic_writer
from .constellation import Apsk16Params, build_16apsk, solution_set
from .errors import DegenerateRateError, ParameterError, TableError

TABLE_ENV_VAR = "HMTS_THRESHOLD_TABLE"
WEATHER_ENV_VAR = "HMTS_WEATHER_CDF"


class ConfigError(ParameterError):
    """A run configuration file is missing, malformed or inconsistent."""


@dataclass(frozen=True)
class RunConfig:
    """Validated contents of a --config JSON file."""

    seed: int | None = None
    out_dir: str | None = None
    thresholds_path: str | None = None
    weather_path: str | None = None
    mode: str = "homogeneous"
    scenario: dict = field(default_factory=dict)
    beam: dict = field(default_factory=dict)
    pair: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    @classmethod
    def load(cls, path_or_name: str) -> "RunConfig":
        path = _resolve_config_path(path_or_name)
        try:
            with open(path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be an object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
        cfg = cls(**raw)
        for section, keys in (
            ("scenario", {f.name for f in fields(sim.ScenarioConfig)}),
            ("beam", {f.name for f in fields(channel.BeamConfig)} - {"snr_max_db"}),
            ("pair", {"snr1", "snr2"}),
            ("grid", {"snr_min", "snr_max", "step"}),
        ):
            bad = set(getattr(cfg, section)) - keys
            if bad:
                raise ConfigError(f"{path}: unknown {section} keys {sorted(bad)}")
        if cfg.mode not in ("homogeneous", "heterogeneous"):
            raise ConfigError(f"{path}: unknown mode {cfg.mode!r}")
        return cfg


def _resolve_config_path(path_or_name: str) -> str:
    if os.path.exists(path_or_name):
        return path_or_name
    name = path_or_name if path_or_name.endswith(".json") else path_or_name + ".json"
    ref = resources.files("hmts.data.configs").joinpath(name)
    if ref.is_file():
        with resources.as_file(ref) as p:
            return str(p)
    raise ConfigError(f"no such config file or preset: {path_or_name}")


def _load_table(args) -> capacity.ThresholdTable:
    path = args.table or os.environ.get(TABLE_ENV_VAR)
    if path:
        return capacity.load_thresholds(path)
    return capacity.default_table()


def _load_weather(path: str | None) -> channel.WeatherCdf:
    path = path or os.environ.get(WEATHER_ENV_VAR)
    if path:
        return channel.WeatherCdf.from_csv(path)
    return channel.default_weather_cdf()


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


def cmd_thresholds(args) -> int:
    rates_list = [Fraction(r) for r in args.rates.split(",")]
    entries = []
    for rho in args.rho:
        entries.extend(
            capacity.estimate_hierarchical_thresholds(
                rho, rates_list, quality=args.quality,
                loss_margin_db=args.margin, seed=args.seed,
            )
        )
    path = _out_path(args, args.out or "thresholds_estimated.csv")
    capacity.save_thresholds(capacity.ThresholdTable(entries), path)
    print(path)
    return 0


def cmd_rates(args) -> int:
    table = _load_table(args)
    if args.rates_command == "pair":
        if args.config:
            cfg = RunConfig.load(args.config)
            snr1 = cfg.pair.get("snr1", args.snr1)
            snr2 = cfg.pair.get("snr2", args.snr2)
        else:
            snr1, snr2 = args.snr1, args.snr2
        if snr1 is None or snr2 is None:
            raise ParameterError("rates pair requires --snr1 and --snr2")
        points = rates.operating_points(snr1, snr2, table)
        r1 = capacity.best_single_rate(table, min(snr1, snr2))
        r2 = capacity.best_single_rate(table, max(snr1, snr2))
        r_ts = rates.ts_rate_two(r1, r2).per_receiver_rate
        r_hm = rates.equal_rate_point(points)
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
            writer.writerow(["gain", f"{r_hm / r_ts - 1.0:.10g}", "", ""])
        print(path)
        return 0
    # grid
    if args.config:
        cfg = RunConfig.load(args.config)
        lo = cfg.grid.get("snr_min", args.min)
        hi = cfg.grid.get("snr_max", args.max)
        step = cfg.grid.get("step", args.step)
    else:
        lo, hi, step = args.min, args.max, args.step
    if step <= 0:
        raise ParameterError("step must be > 0")
    cache = sim.PairRateCache(table)
    path = _out_path(args, "rates_gain_grid.csv")
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["snr1_db", "snr2_db", "gain"])
        n = int(round((hi - lo) / step))
        grid = [lo + k * step for k in range(n + 1)]
        for s1 in grid:
            for s2 in grid:
                if s2 < s1:
                    continue
                r1 = cache.best_single_rate(s1)
                r2 = cache.best_single_rate(s2)
                if r1 <= 0 or r2 <= 0:
                    gain = ""
                else:
                    r_ts = rates.ts_rate_two(r1, r2).per_receiver_rate
                    gain = f"{cache.pair_rate(s1, s2) / r_ts - 1.0:.10g}"
                writer.writerow([f"{s1:.10g}", f"{s2:.10g}", gain])
    print(path)
    return 0


def _parse_snrs(value: str) -> list[float]:
    if os.path.exists(value):
        receivers = channel.read_population(value)
        return [r.snr_db for r in receivers]
    try:
        return [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise ParameterError(f"cannot parse SNR list {value!r}") from None


def cmd_pairing(args) -> int:
    snrs = _parse_snrs(args.snrs)
    if args.strategy == "C":
        plan = pairing.strategy_c(snrs, seed=args.seed)
    else:
        plan = pairing.STRATEGIES[args.strategy](snrs)
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
    cfg_file = RunConfig.load(args.config) if args.config else RunConfig()
    seed = args.seed
    if seed is None:
        seed = cfg_file.seed if cfg_file.seed is not None else 1
    scenario_kwargs = dict(cfg_file.scenario)
    for key in ("snr_max_grid", "strategies", "professional_share_grid", "rho_set"):
        if key in scenario_kwargs and isinstance(scenario_kwargs[key], list):
            scenario_kwargs[key] = tuple(scenario_kwargs[key])
    scenario_kwargs["seed"] = seed
    scenario = sim.ScenarioConfig(**scenario_kwargs)
    if args.table is None and cfg_file.thresholds_path:
        table = capacity.load_thresholds(cfg_file.thresholds_path)
    else:
        table = _load_table(args)
    weather = _load_weather(args.weather or cfg_file.weather_path)
    beam = None
    if cfg_file.beam:
        beam = channel.BeamConfig(snr_max_db=0.0, **cfg_file.beam)
    out_dir = args.out_dir if args.out_dir != "." else (cfg_file.out_dir or ".")
    population_dir = os.path.join(out_dir, "populations") if args.dump_populations else None
    report = sim.run_scenario(
        scenario, mode=cfg_file.mode, table=table, weather=weather,
        beam_template=beam, population_dir=population_dir,
    )
    report_path = os.path.join(out_dir, "report.csv")
    summary_path = os.path.join(out_dir, "summary.csv")
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
    # SUPPRESS keeps a post-subcommand absence from clobbering a
    # pre-subcommand value
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="global random seed")
    common.add_argument("--out-dir", default=argparse.SUPPRESS,
                        help="directory for output files")
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="JSON run configuration or preset name")
    common.add_argument("--table", default=argparse.SUPPRESS,
                        help=f"threshold table CSV (or ${TABLE_ENV_VAR})")
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
    pe.add_argument("--rates", default="1/4,1/3,2/5,1/2,3/5,2/3,3/4,4/5,5/6,8/9,9/10")
    pe.add_argument("--quality", type=int, default=capacity.DEFAULT_MI_QUALITY)
    pe.add_argument("--margin", type=float, default=capacity.DEFAULT_LOSS_MARGIN_DB)
    pe.add_argument("--out", default=None)
    pe.set_defaults(func=cmd_thresholds)

    p = sub.add_parser("rates", help="pair operating points or gain grids")
    rsub = p.add_subparsers(dest="rates_command", required=True)
    pp = rsub.add_parser("pair", parents=[common])
    pp.add_argument("--snr1", type=float, default=None)
    pp.add_argument("--snr2", type=float, default=None)
    pp.set_defaults(func=cmd_rates)
    pg = rsub.add_parser("grid", parents=[common])
    pg.add_argument("--min", type=float, default=4.0)
    pg.add_argument("--max", type=float, default=12.0)
    pg.add_argument("--step", type=float, default=0.5)
    pg.set_defaults(func=cmd_rates)

    p = sub.add_parser("pairing", parents=[common], help="pair receivers by SNR difference")
    p.add_argument("--strategy", choices=sorted(pairing.STRATEGIES), required=True)
    p.add_argument("--snrs", required=True,
                   help="comma-separated dB values or a population CSV path")
    p.set_defaults(func=cmd_pairing)

    p = sub.add_parser("simulate", parents=[common], help="run a broadcast scenario")
    p.add_argument("--weather", default=None,
                   help=f"weather CDF CSV (or ${WEATHER_ENV_VAR})")
    p.add_argument("--dump-populations", action="store_true")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the shared flags use SUPPRESS so a post-subcommand absence cannot
    # clobber a pre-subcommand value; fill the true defaults here
    for name, default in (("seed", None), ("out_dir", "."), ("config", None), ("table", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    if args.seed is None and args.command != "simulate":
        args.seed = 1  # simulate resolves its seed against the config file
    try:
        return args.func(args)
    except DegenerateRateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.receivers:
            print(f"receivers: {list(exc.receivers)}", file=sys.stderr)
        return 3
    except (ParameterError, TableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
