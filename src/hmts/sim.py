"""Broadcast experiments: classical vs hierarchical-modulation time
sharing over generated receiver populations.

Each trial draws a population, computes the classical equal-rate
allocation from the receivers' best single-stream rates, then pairs the
receivers with the chosen strategy and equalises the per-receiver rate
across pairs, each pair operating at the best point of its achievable
region.  Receivers that decode no modcod at all are excluded from both
schemes and counted.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import os
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ._csv import atomic_writer
from .capacity import ThresholdTable, best_single_rate, default_table
from .channel import BeamConfig, WeatherCdf, default_weather_cdf, generate_population, write_population
from .errors import DegenerateRateError, ParameterError
from .pairing import STRATEGIES, run_strategy
from .rates import hierarchical_gain, max_min_weighted, operating_points

__all__ = [
    "ScenarioConfig",
    "GainRecord",
    "GainReport",
    "PairRateCache",
    "run_trial",
    "run_scenario",
    "summarize",
]


@dataclass(frozen=True)
class ScenarioConfig:
    """Experiment layout: population size, trials, sweeps and seed."""

    n_receivers: int = 500
    n_trials: int = 100
    snr_max_grid: tuple[float, ...] = (7.0, 10.0, 13.0, 18.0)
    strategies: tuple[str, ...] = ("A", "B", "C", "D")
    professional_share_grid: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    rho_set: tuple[float, ...] = (0.75, 0.80, 0.85, 0.90)
    professional_weight: int = 1
    seed: int = 1

    def __post_init__(self):
        if self.n_receivers < 2 or self.n_receivers % 2:
            raise ParameterError("n_receivers must be even and >= 2")
        if self.n_trials < 1:
            raise ParameterError("n_trials must be >= 1")
        unknown = [s for s in self.strategies if s not in STRATEGIES]
        if unknown:
            raise ParameterError(f"unknown strategies {unknown}; expected subset of A-D")
        if any(not 0.0 <= s <= 1.0 for s in self.professional_share_grid):
            raise ParameterError("professional shares must lie in [0, 1]")
        if self.professional_weight < 1:
            raise ParameterError("professional_weight must be >= 1")


@dataclass(frozen=True)
class GainRecord:
    snr_max_db: float
    strategy: str
    share: float
    trial: int
    classical_rate: float
    hier_rate: float
    gain: float
    n_excluded: int = 0


@dataclass(frozen=True)
class GainReport:
    """Per-trial gain records plus aggregation helpers."""

    records: tuple[GainRecord, ...]
    mode: str = "homogeneous"

    @functools.cached_property
    def _groups(self) -> dict[tuple[float, str, float], list[float]]:
        """Gains per (snr_max, strategy, share), in first-seen order."""
        groups: dict[tuple[float, str, float], list[float]] = {}
        for r in self.records:
            groups.setdefault((r.snr_max_db, r.strategy, r.share), []).append(r.gain)
        return groups

    def gains(self, snr_max_db: float, strategy: str, share: float = 0.0) -> list[float]:
        return list(self._groups.get((snr_max_db, strategy, share), ()))

    def mean_gain(self, snr_max_db: float, strategy: str, share: float = 0.0) -> float:
        g = self._groups.get((snr_max_db, strategy, share))
        if not g:
            raise ParameterError(
                f"no records for snr_max={snr_max_db}, strategy={strategy}, share={share}"
            )
        return sum(g) / len(g)

    def summary_rows(self) -> list[tuple[float, str, float, float, float, float]]:
        return [
            (snr, strat, share, sum(g) / len(g), min(g), max(g))
            for (snr, strat, share), g in self._groups.items()
        ]

    def to_csv(self, path: str | os.PathLike) -> None:
        with atomic_writer(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["snr_max_db", "strategy", "share", "trial",
                 "classical_rate", "hier_rate", "gain"]
            )
            for r in self.records:
                writer.writerow(
                    [f"{r.snr_max_db:.10g}", r.strategy, f"{r.share:.10g}", r.trial,
                     f"{r.classical_rate:.10g}", f"{r.hier_rate:.10g}", f"{r.gain:.10g}"]
                )

    def summary_to_csv(self, path: str | os.PathLike) -> None:
        with atomic_writer(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["snr_max_db", "strategy", "share", "mean_gain", "min_gain", "max_gain"]
            )
            for snr, strat, share, mean, lo, hi in self.summary_rows():
                writer.writerow(
                    [f"{snr:.10g}", strat, f"{share:.10g}",
                     f"{mean:.10g}", f"{lo:.10g}", f"{hi:.10g}"]
                )


class PairRateCache:
    """Memoised per-pair and per-receiver rate lookups for one table.

    Thresholds quantise the SNR axis: two SNRs falling between the same
    adjacent thresholds decode exactly the same modcod sets, so results
    are cached per threshold bucket.
    """

    def __init__(self, table: ThresholdTable):
        self.table = table
        self._breaks = sorted({e.threshold_db for e in table.entries})
        self._pair_cache: dict = {}
        self._single_cache: dict = {}

    def _bucket(self, snr_db: float) -> int:
        return bisect_right(self._breaks, snr_db)

    def best_single_rate(self, snr_db: float) -> float:
        if snr_db != snr_db:
            raise ParameterError("snr_db must not be NaN")
        b = self._bucket(snr_db)
        try:
            return self._single_cache[b]
        except KeyError:
            rate = self._single_cache[b] = best_single_rate(self.table, snr_db)
            return rate

    def pair_rate(self, snr1: float, snr2: float, w1: int = 1, w2: int = 1) -> float:
        """Best common per-receiver rate of a pair (weighted equal rate)."""
        if snr1 != snr1 or snr2 != snr2:
            raise ParameterError("snr_db must not be NaN")
        if snr1 > snr2:
            snr1, snr2 = snr2, snr1
            w1, w2 = w2, w1
        key = (self._bucket(snr1), self._bucket(snr2), w1, w2)
        try:
            return self._pair_cache[key]
        except KeyError:
            points = operating_points(snr1, snr2, self.table)
            rate = max_min_weighted(points, w1, w2)
            self._pair_cache[key] = rate
            return rate


def _as_cache(table) -> PairRateCache:
    return table if isinstance(table, PairRateCache) else PairRateCache(table)


def run_trial(receivers, strategy: str, table, seed=0):
    """One trial: (classical rate, hierarchical rate, gain, excluded).

    ``receivers`` is a list of Receiver; ``strategy`` one of A-D.  The
    returned rates are per served receiver; ``excluded`` lists the indices
    that decode nothing and take part in neither scheme.
    """
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}")
    cache = _as_cache(table)
    rates = [cache.best_single_rate(r.snr_db) for r in receivers]
    excluded = tuple(i for i, rate in enumerate(rates) if rate <= 0)
    active = [i for i in range(len(receivers)) if rates[i] > 0]
    if not active:
        raise DegenerateRateError(
            "no receiver can decode any modcod", receivers=excluded
        )

    inv_classical = sum(receivers[i].weight / rates[i] for i in active)
    classical = 1.0 / inv_classical

    pool = sorted(active, key=lambda i: (receivers[i].snr_db, i))
    solo = None
    if len(pool) % 2:
        solo = pool.pop(len(pool) // 2)  # keep the middle receiver single
    inv_hier = 0.0
    if solo is not None:
        inv_hier += receivers[solo].weight / rates[solo]
    if pool:
        snrs = [receivers[i].snr_db for i in pool]
        for a, b in run_strategy(strategy, snrs, seed).pairs:
            i, j = pool[a], pool[b]
            r_pair = cache.pair_rate(
                receivers[i].snr_db, receivers[j].snr_db,
                receivers[i].weight, receivers[j].weight,
            )
            inv_hier += 1.0 / r_pair
    hier = 1.0 / inv_hier
    return classical, hier, hierarchical_gain(hier, classical), excluded


def _trial_seed(seed: int, snr_max_db: float, share: float, trial: int) -> np.random.SeedSequence:
    # the offset keeps the entropy words non-negative for snr_max > -4000 dB
    return np.random.SeedSequence(
        (int(seed), int(round(snr_max_db * 1000)) + (1 << 22),
         int(round(share * 1000)), int(trial))
    )


def run_scenario(
    cfg: ScenarioConfig,
    mode: str = "homogeneous",
    table: ThresholdTable | None = None,
    weather: WeatherCdf | None = None,
    beam_template: BeamConfig | None = None,
    population_dir: str | os.PathLike | None = None,
) -> GainReport:
    """Sweep snr_max (and professional share for the heterogeneous mode)
    over seeded trials; deterministic for a fixed config."""
    if mode not in ("homogeneous", "heterogeneous"):
        raise ParameterError(f"unknown mode {mode!r}")
    if table is None:
        table = default_table()
    table = table.filter_rho(cfg.rho_set)
    cache = PairRateCache(table)
    if weather is None:
        weather = default_weather_cdf()
    shares = (0.0,) if mode == "homogeneous" else tuple(cfg.professional_share_grid)
    records = []
    for snr_max in cfg.snr_max_grid:
        if beam_template is None:
            beam = BeamConfig(snr_max_db=snr_max)
        else:
            beam = dataclasses.replace(beam_template, snr_max_db=snr_max)
        for share in shares:
            for trial in range(cfg.n_trials):
                ss = _trial_seed(cfg.seed, snr_max, share, trial)
                pop_seed, strat_seed = ss.spawn(2)
                population = generate_population(
                    cfg.n_receivers, beam, weather,
                    professional_share=share,
                    professional_weight=cfg.professional_weight,
                    seed=pop_seed,
                )
                if population_dir is not None:
                    name = f"population_snr{snr_max:g}_share{share:g}_trial{trial}.csv"
                    write_population(population, os.path.join(population_dir, name))
                for strategy in cfg.strategies:
                    classical, hier, gain, excluded = run_trial(
                        population, strategy, cache, seed=strat_seed
                    )
                    records.append(
                        GainRecord(
                            snr_max_db=snr_max, strategy=strategy, share=share,
                            trial=trial, classical_rate=classical,
                            hier_rate=hier, gain=gain, n_excluded=len(excluded),
                        )
                    )
    return GainReport(records=tuple(records), mode=mode)


def summarize(report: GainReport, noise_tol: float = 0.005) -> list[dict]:
    """Mean-gain ordering checks A >= B >= C >= D per configuration.

    A and B may tie within ``noise_tol``.  Returns one row per
    (snr_max, share) with the mean gains and the ordering booleans for the
    strategies present in the report.
    """
    # configurations come first-seen, as in the records
    combos = list(dict.fromkeys((snr, share) for snr, _, share in report._groups))
    present = {strategy for _, strategy, _ in report._groups}
    strategies = [s for s in "ABCD" if s in present]
    rows = []
    for snr, share in combos:
        means = {s: report.mean_gain(snr, s, share) for s in strategies}
        row: dict = {"snr_max_db": snr, "share": share, "means": means}
        for lo, hi in zip(strategies[1:], strategies):
            tol = noise_tol if {lo, hi} == {"A", "B"} else 0.0
            row[f"{hi}>={lo}"] = means[hi] >= means[lo] - tol
        rows.append(row)
    return rows
