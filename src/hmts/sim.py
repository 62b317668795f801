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

import functools
import os
from dataclasses import dataclass

import numpy as np

from ._csv import write_rows
from .capacity import ThresholdTable, _parse_hier_rho, default_table
from .channel import (
    _MAX_WEIGHT,
    BeamConfig,
    Population,
    WeatherCdf,
    default_weather_cdf,
    generate_populations,
    write_population,
)
from .errors import DegenerateRateError, ParameterError
from .pairing import STRATEGIES, check_snrs, pair_positions
from .rates import PairRateCache, _check_weights, hierarchical_gain, ts_rate_n

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
        for name, least in (
            ("n_receivers", 2), ("n_trials", 1), ("professional_weight", 1), ("seed", 0),
        ):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not integer or value < least:
                raise ParameterError(f"{name} must be an integer >= {least}, got {value!r}")
        if self.professional_weight > _MAX_WEIGHT:
            raise ParameterError(f"professional_weight must be <= 2**63 - 1, "
                                 f"got {self.professional_weight!r}")
        if self.n_receivers % 2:
            raise ParameterError("n_receivers must be even and >= 2")
        strategies = self.strategies
        if (not isinstance(strategies, (tuple, list)) or not strategies
                or not all(isinstance(s, str) and s in STRATEGIES for s in strategies)
                or len(set(strategies)) < len(strategies)):
            raise ParameterError(f"strategies must be a nonempty list of distinct names "
                                 f"from A-D, got {strategies!r}")
        # |snr_max| <= 4000 dB keeps _trial_seed's word for it in [0, 2**32)
        bounds = dict(snr_max_grid=(-4000, 4000), professional_share_grid=(0, 1), rho_set=(0, 1))
        for name, (low, high) in bounds.items():
            values = getattr(self, name)
            # no bool or str; the range rejects NaN, inf and huge ints
            if not isinstance(values, (tuple, list)) or not values or not all(
                isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)
                and low <= v <= high for v in values
            ) or len(set(values)) < len(values):
                raise ParameterError(f"{name} must be a nonempty list of distinct numbers in "
                                     f"[{low}, {high}], got {values!r}")
        # _trial_seed keys a trial on snr_max and share in thousandths: a
        # value off them, or two values with one key, would share populations
        for name in ("snr_max_grid", "professional_share_grid"):
            values = getattr(self, name)
            keys = [round(v * 1000) for v in values]
            for v, key in zip(values, keys):
                if abs(v - key / 1000) > 1e-9:
                    raise ParameterError(f"{name} values must be multiples of 0.001, got {v!r}")
            if len(set(keys)) < len(keys):
                raise ParameterError(f"{name} repeats a value, got {values!r}")


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

    @functools.cached_property
    def _groups(self) -> dict[tuple[float, str, float], list[float]]:
        """Gains per (snr_max, strategy, share), in first-seen order."""
        groups: dict[tuple[float, str, float], list[float]] = {}
        for r in self.records:
            groups.setdefault((r.snr_max_db, r.strategy, r.share), []).append(r.gain)
        return groups

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
        write_rows(
            path,
            ["snr_max_db", "strategy", "share", "trial", "classical_rate", "hier_rate", "gain"],
            ([f"{r.snr_max_db:.10g}", r.strategy, f"{r.share:.10g}", r.trial,
              f"{r.classical_rate:.10g}", f"{r.hier_rate:.10g}", f"{r.gain:.10g}"]
             for r in self.records),
        )

    def summary_to_csv(self, path: str | os.PathLike) -> None:
        write_rows(
            path,
            ["snr_max_db", "strategy", "share", "mean_gain", "min_gain", "max_gain"],
            ([f"{snr:.10g}", strat, f"{share:.10g}", f"{mean:.10g}", f"{lo:.10g}", f"{hi:.10g}"]
             for snr, strat, share, mean, lo, hi in self.summary_rows()),
        )


# trials x receivers per batch of run_scenario, 16 trials of 500: on the
# heterogeneous preset (100 trials a point), batches of 1 << 16 were no
# faster and raised the peak memory by 8.3 MiB (BENCH_17.json)
_BATCH = 1 << 13


def run_trial(snr_db, weight, strategy: str, table, seed=0):
    """One trial: (classical rate, hierarchical rate, gain, excluded).

    ``snr_db`` and ``weight`` hold one SNR (dB, finite) and one weight
    (integer >= 1, the receivers a terminal serves) per terminal;
    ``strategy`` is one of A-D.  The returned rates are per served
    receiver; ``excluded`` lists the indices that decode nothing and
    take part in neither scheme.
    """
    snr, weight = np.asarray(snr_db, dtype=float), np.asarray(weight)
    if snr.ndim != 1 or weight.shape != snr.shape:
        raise ParameterError("run_trial needs one weight per SNR, as 1-D arrays")
    outcomes, error = _run_batch(snr[None], weight[None], (strategy,), table, (seed,))
    if error is not None:
        raise error
    return outcomes[0][0]


def _run_batch(snr_db, weight, strategies, table, seeds):
    """``run_trial`` of a stack of populations under each of
    ``strategies``, one population per row of the (trials, terminals)
    arrays ``snr_db`` and ``weight``; row t draws strategy C's pairs
    from ``seeds[t]``.

    Returns, for each row before the first population that decodes
    nothing, one ``run_trial`` tuple per strategy, and that population's
    ``DegenerateRateError`` (None if there is none).  The checks, the
    rating, the classical rate, the sort, the solo receiver, the pair
    lookup and the harmonic sums run once on the whole stack, and each
    strategy's core pairs all rows' pools in one call.  Every value
    equals the one a row gets on its own: the sums run left to right
    along a row, the zeros that pad them change no bit, and a core pairs
    each row as it would alone.
    """
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {strategy!r}")
    snr = np.asarray(snr_db, dtype=float)
    weight = _check_weights(weight)
    if not np.isfinite(snr).all():
        raise ParameterError("snr_db must be finite")
    cache = table if isinstance(table, PairRateCache) else PairRateCache(table)
    n = snr.shape[1]
    # rates grow with the SNR, so a row's receivers that decode nothing
    # come first in its sort (by SNR, then index), and the rest is the
    # row's pool; the search for the rates' buckets is faster on sorted
    # SNRs
    order = np.argsort(snr, axis=1, kind="stable")
    v_all = np.take_along_axis(snr, order, axis=1)
    w_all = np.take_along_axis(weight, order, axis=1)
    rates = cache.best_single_rate(v_all)
    n_excluded = n - np.count_nonzero(rates > 0, axis=1)
    error = None
    dead = np.flatnonzero(n_excluded == n)
    if dead.size:
        error = DegenerateRateError("no receiver can decode any modcod", receivers=range(n))
        order, v_all, w_all, rates, n_excluded = (
            a[:dead[0]] for a in (order, v_all, w_all, rates, n_excluded))
    n_trials = len(order)
    if not n_trials:
        return [], error
    # the classical sum runs in index order, as the reference
    # run_trial_scalar in tests/oracles.py adds it
    by_index = np.empty_like(rates)
    np.put_along_axis(by_index, order, rates, axis=1)
    classical = ts_rate_n(by_index, weight[:n_trials])
    pool = n - n_excluded
    # the middle receiver of an odd pool stays single; column 0 of each
    # strategy's harmonic sum is its inverse rate, or 0
    middle = n_excluded + pool // 2
    rows = np.arange(n_trials)
    solo = np.where(pool % 2 == 1, w_all[rows, middle] / rates[rows, middle], 0.0)
    # the pairing and the lookup need only the sorted rows: the batch's
    # memory peaks there, so free what they do not need
    del rates, by_index
    pools, pool_weights, pool_seeds = [], [], []
    for t, (first, mid, v, w) in enumerate(zip(n_excluded.tolist(), middle.tolist(),
                                               v_all, w_all)):
        v, w = v[first:], w[first:]
        if len(v) % 2:
            v, w = np.delete(v, mid - first), np.delete(w, mid - first)
        if v.size:
            pools.append(check_snrs(v))
            pool_weights.append(w)
            pool_seeds.append(seeds[t])
    # each strategy's core pairs all of the batch's pools in one call
    positions = [pair_positions(s, pools, pool_seeds) for s in strategies]
    # per row and strategy, each pair's two SNRs and two weights, the
    # pairs in ascending order of their smaller position in the pool
    n_pairs = (pool // 2).repeat(len(strategies))
    snrs = np.empty((2, n_pairs.sum()))
    weights = np.empty(snrs.shape, w_all.dtype)
    end = 0
    for t, (v, w) in enumerate(zip(pools, pool_weights)):
        pairs = np.concatenate([_by_smaller(p[t]) for p in positions], axis=1)
        start, end = end, end + pairs.shape[1]
        snrs[:, start:end] = v[pairs]
        weights[:, start:end] = w[pairs]
    # nor does the lookup need the sorted rows
    del v_all, w_all, pools, pool_weights, positions
    pair_inv = 1.0 / cache.pair_rate(*snrs, *weights)
    del snrs, weights
    sums = np.zeros((n_pairs.size, 1 + n // 2))
    sums[:, 0] = solo.repeat(len(strategies))
    sums[:, 1:][np.arange(n // 2) < n_pairs[:, None]] = pair_inv
    hier = 1.0 / np.cumsum(sums, axis=1)[:, -1].reshape(n_trials, len(strategies))
    gains = hierarchical_gain(hier, classical[:, None])
    outcomes = []
    for t, (e, c, h, g) in enumerate(zip(n_excluded.tolist(), classical.tolist(),
                                          hier.tolist(), gains.tolist())):
        excluded = tuple(np.sort(order[t, :e]).tolist()) if e else ()
        outcomes.append([(c, *hg, excluded) for hg in zip(h, g)])
    return outcomes, error


def _by_smaller(pairs: np.ndarray) -> np.ndarray:
    """A perfect matching of positions 0..n-1 as two rows, the smaller
    and the larger position of each pair, the pairs in ascending order
    of the smaller."""
    first, second = pairs[:, 0], pairs[:, 1]
    mate = np.empty(pairs.size, dtype=np.intp)
    mate[first] = second
    mate[second] = first
    lo = np.flatnonzero(mate > np.arange(pairs.size))
    return np.stack((lo, mate[lo]))


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
    beam: BeamConfig | None = None,
    population_dir: str | os.PathLike | None = None,
) -> GainReport:
    """Sweep snr_max (and professional share for the heterogeneous mode)
    over seeded trials under one antenna, ``BeamConfig()`` by default;
    deterministic for a fixed config."""
    if mode not in ("homogeneous", "heterogeneous"):
        raise ParameterError(f"unknown mode {mode!r}")
    if table is None:
        table = default_table()
    kept = table.filter_rho(cfg.rho_set)
    if not kept.hierarchical_modulations():
        rhos = [_parse_hier_rho(m) for m in table.hierarchical_modulations()]
        raise ParameterError(
            f"rho_set {list(cfg.rho_set)} matches none of the table's rho values {rhos}")
    cache = PairRateCache(kept)
    if mode == "homogeneous" or cfg.professional_weight == 1:
        # every population weighs 1: the one pair table the lookups need
        # is filled before the first batch's arrays exist, so that the
        # fill's temporaries and a batch's arrays are not held at once
        cache.pair_table(1, 1)
    if weather is None:
        weather = default_weather_cdf()
    if beam is None:
        beam = BeamConfig()
    shares = (0.0,) if mode == "homogeneous" else tuple(cfg.professional_share_grid)
    per_batch = max(1, _BATCH // cfg.n_receivers)
    records = []
    for snr_max in cfg.snr_max_grid:
        for share in shares:
            for start in range(0, cfg.n_trials, per_batch):
                trials = range(start, min(start + per_batch, cfg.n_trials))
                seeds = [_trial_seed(cfg.seed, snr_max, share, trial).spawn(2) for trial in trials]
                populations = generate_populations(
                    cfg.n_receivers, snr_max, beam, weather,
                    professional_share=share,
                    professional_weight=cfg.professional_weight,
                    seeds=[pop_seed for pop_seed, _ in seeds],
                )
                outcomes, error = _run_batch(
                    populations.snr_db, populations.weight, cfg.strategies, cache,
                    [strat_seed for _, strat_seed in seeds],
                )
                if population_dir is not None:
                    # as far as a trial-by-trial run gets: through the
                    # population that decodes nothing, if there is one
                    done = len(outcomes) + (error is not None)
                    for trial, population in zip(trials[:done], zip(*populations)):
                        name = f"population_snr{snr_max:g}_share{share:g}_trial{trial}.csv"
                        write_population(Population(*population),
                                         os.path.join(population_dir, name))
                if error is not None:
                    raise error
                for trial, outcome in zip(trials, outcomes):
                    records.extend(
                        GainRecord(
                            snr_max_db=snr_max, strategy=strategy, share=share,
                            trial=trial, classical_rate=classical,
                            hier_rate=hier, gain=gain, n_excluded=len(excluded),
                        )
                        for strategy, (classical, hier, gain, excluded)
                        in zip(cfg.strategies, outcome)
                    )
    return GainReport(records=tuple(records))


_AB_NOISE_TOL = 0.005


def summarize(report: GainReport) -> list[dict]:
    """Mean-gain ordering checks A >= B >= C >= D per configuration.

    A and B may tie within ``_AB_NOISE_TOL``.  Returns one row per
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
            tol = _AB_NOISE_TOL if {lo, hi} == {"A", "B"} else 0.0
            row[f"{hi}>={lo}"] = means[hi] >= means[lo] - tol
        rows.append(row)
    return rows
