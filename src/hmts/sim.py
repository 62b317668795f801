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
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from ._csv import atomic_writer
from .capacity import ThresholdTable, _parse_hier_rho, best_entry, default_table
from .channel import BeamConfig, WeatherCdf, default_weather_cdf, generate_population, write_population
from .errors import DegenerateRateError, ParameterError
from .pairing import STRATEGIES, check_snrs, pair_positions
from .rates import hierarchical_gain

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


# rows per call of _max_min_rates in a pair-table build: the shipped
# table's 2,865 offer pairs fill in three passes; one pass of all of them
# is barely faster and holds about 1 MiB more of temporaries at its peak
_SLICE = 1024


class PairRateCache:
    """Dense rate tables for one threshold table, looked up by arrays.

    Thresholds quantise the SNR axis: two SNRs falling between the same
    adjacent thresholds decode exactly the same modcod sets, so every
    rate is a function of the threshold bucket.  The constructor keeps,
    per bucket, the best single-stream efficiency and the best HE and LE
    efficiency of each hierarchical modulation (0 where nothing
    decodes).  The pair rates of all bucket pairs are tabulated for a
    weight pair on its first lookup.
    """

    def __init__(self, table: ThresholdTable):
        self.table = table
        self._breaks = np.array(sorted({e.threshold_db for e in table.entries}))
        # bucket b decodes exactly the entries with threshold <= breaks[b - 1]
        snrs = [-math.inf, *self._breaks.tolist()]
        mods = table.hierarchical_modulations()
        self._single = np.array(_best_efficiencies(table.singles(), snrs))
        # what each bucket offers as the worse and as the better receiver
        self._lo = np.column_stack(
            [self._single, *(_best_efficiencies(table.entries_for(m, "HE"), snrs) for m in mods)]
        )
        self._hi = np.column_stack(
            [self._single, *(_best_efficiencies(table.entries_for(m, "LE"), snrs) for m in mods)]
        )
        self._pair_tables: dict[tuple[int, int], np.ndarray] = {}

    def _buckets(self, snr_db) -> np.ndarray:
        """Threshold bucket of each SNR: the number of thresholds <= it."""
        snr = np.asarray(snr_db, dtype=float)
        # searchsorted would file NaN into the top bucket
        if np.isnan(snr).any():
            raise ParameterError("snr_db must not be NaN")
        return np.searchsorted(self._breaks, snr, side="right")

    def best_single_rate(self, snr_db):
        """Best single-stream rate at each SNR (0 where nothing decodes)."""
        return self._single[self._buckets(snr_db)]

    def pair_rate(self, snr1, snr2, w1=1, w2=1):
        """Best common per-receiver rate of each pair (weighted equal
        rate); the arguments broadcast against each other."""
        s1, s2 = np.asarray(snr1, dtype=float), np.asarray(snr2, dtype=float)
        b1, b2 = self._buckets(s1), self._buckets(s2)
        w1, w2 = _check_weights(w1), _check_weights(w2)
        swap = s1 > s2
        b_lo, b_hi, w_lo, w_hi = np.broadcast_arrays(
            np.where(swap, b2, b1), np.where(swap, b1, b2),
            np.where(swap, w2, w1), np.where(swap, w1, w2),
        )
        if w_lo.size and w_lo.min() == w_lo.max() and w_hi.min() == w_hi.max():
            # one weight pair, the usual case: no masks
            return self._pair_table(int(w_lo.flat[0]), int(w_hi.flat[0]))[b_lo, b_hi]
        out = np.empty(b_lo.shape)
        for u, v in set(zip(w_lo.ravel().tolist(), w_hi.ravel().tolist())):
            sel = (w_lo == u) & (w_hi == v)
            out[sel] = self._pair_table(u, v)[b_lo[sel], b_hi[sel]]
        return out[()]

    def _pair_table(self, w_lo: int, w_hi: int) -> np.ndarray:
        """Pair rates [b_lo, b_hi], meaningful for b_lo <= b_hi; each
        distinct (worse, better) offer pair is computed once."""
        table = self._pair_tables.get((w_lo, w_hi))
        if table is None:
            lo_offers, lo_id = _distinct_rows(self._lo)
            hi_offers, hi_id = _distinct_rows(self._hi)
            needed = np.zeros((len(lo_offers), len(hi_offers)), dtype=bool)
            for b, offer in enumerate(lo_id):  # the buckets b_hi >= b_lo
                needed[offer, hi_id[b:]] = True
            i, j = np.nonzero(needed)
            rates = np.full(needed.shape, np.nan)
            # in slices, so that the pass's temporaries stay small
            for k in range(0, len(i), _SLICE):
                ik, jk = i[k:k + _SLICE], j[k:k + _SLICE]
                rates[ik, jk] = _max_min_rates(lo_offers[ik] / w_lo, hi_offers[jk] / w_hi)
            table = self._pair_tables[(w_lo, w_hi)] = rates[lo_id[:, None], hi_id]
        return table


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows, in first-seen order, and each row's index
    among them."""
    ids: dict[tuple, int] = {}
    index = [ids.setdefault(row, len(ids)) for row in map(tuple, rows.tolist())]
    return np.array(list(ids)), np.array(index)


def _best_efficiencies(entries, snrs) -> list[float]:
    """Efficiency of ``capacity.best_entry`` at each SNR, 0 where nothing
    decodes."""
    best = [best_entry(entries, s) for s in snrs]
    return [e.spectral_efficiency if e else 0.0 for e in best]


def _check_weights(weight) -> np.ndarray:
    w = np.asarray(weight)
    if w.dtype.kind not in "iu" or (w < 1).any():
        raise ParameterError(f"weights must be integers >= 1, got {weight!r}")
    return w


def _max_min_rates(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``rates.max_min_weighted`` of many point sets at once, value for
    value.

    Row k of ``lo`` holds (single, HE of each hierarchical modulation)
    of the worse receiver and row k of ``hi`` (single, LE of each) of
    the better one, both divided by the weights; 0 means nothing
    decodes.  The point set is ``rates.augmented_hull``'s.  Its lower
    chain is always the origin, (max x, 0) and (max x, max y there):
    every pop decision on the way multiplies by an exact zero.  Those
    two edges give 0 and the min of the upper chain's first vertex, so
    the max over the hull is the max over the upper chain's edges,
    including the closing edge to the origin.  The upper chain is
    rebuilt here with the same sort, the same cross products and the
    same pops, and each edge gets ``rates._segment_best_min``'s
    arithmetic, so no value is computed another way.

    ``rates.max_min_weighted`` stays for single pairs: one row here
    costs about 0.9 ms, one pair there about 35 us.
    """
    n, k = lo.shape[0], lo.shape[1] - 1
    both = (lo[:, 1:] > 0) & (hi[:, 1:] > 0)
    # each point as x + iy: the origin, the two single points, each
    # hierarchical point and its two projections; a missing point falls
    # on the origin
    p = np.zeros((n, 3 + 3 * k), dtype=complex)
    p.real[:, 1] = lo[:, 0]
    p.imag[:, 2] = hi[:, 0]
    p.real[:, 3:3 + k] = p.real[:, 3 + k:3 + 2 * k] = np.where(both, lo[:, 1:], 0.0)
    p.imag[:, 3:3 + k] = p.imag[:, 3 + 2 * k:] = np.where(both, hi[:, 1:], 0.0)
    # numpy orders complex values by real part, then imaginary part: the
    # ascending (x, y) order, sorted in place; equal points are equal
    # values, so reversing gives reversed(sorted(...))'s sequence
    p.sort(axis=1)
    x, y = p.real[:, ::-1], p.imag[:, ::-1]
    distinct = np.ones(x.shape, dtype=bool)
    distinct[:, 1:] = (x[:, 1:] != x[:, :-1]) | (y[:, 1:] != y[:, :-1])

    rows = np.arange(n)
    # the chain of each row; a chain is convex, so its vertices are hull
    # vertices of the points so far: at most two on each axis and the k
    # hierarchical points
    sx, sy = np.zeros((n, k + 4)), np.zeros((n, k + 4))
    top = np.zeros(n, dtype=np.intp)
    for col in range(x.shape[1]):
        px, py = x[:, col], y[:, col]
        live = rows[distinct[:, col]]
        pending = live[top[live] >= 2]
        while pending.size:
            h = top[pending]
            ox, oy = sx[pending, h - 2], sy[pending, h - 2]
            ax, ay = sx[pending, h - 1], sy[pending, h - 1]
            bx, by = px[pending], py[pending]
            pending = pending[(ax - ox) * (by - oy) - (ay - oy) * (bx - ox) <= 0]
            top[pending] -= 1
            pending = pending[top[pending] >= 2]
        h = top[live]
        sx[live, h], sy[live, h] = px[live], py[live]
        top[live] += 1

    best = np.zeros(n)
    for e in range(1, top.max()):  # the edge from vertex e - 1 to vertex e
        px, py, qx, qy = sx[:, e - 1], sy[:, e - 1], sx[:, e], sy[:, e]
        seg = np.maximum(np.minimum(px, py), np.minimum(qx, qy))
        dx, dy = qx - px, qy - py
        denom = dx - dy
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (py - px) / denom
        crosses = (denom != 0.0) & (0.0 < t) & (t < 1.0)
        seg = np.where(crosses, np.maximum(seg, px + t * dx), seg)
        best = np.where(top > e, np.maximum(best, seg), best)
    return best


def run_trial(snr_db, weight, strategy: str, table, seed=0):
    """One trial: (classical rate, hierarchical rate, gain, excluded).

    ``snr_db`` and ``weight`` hold one SNR (dB, finite) and one weight
    (integer >= 1, the receivers a terminal serves) per terminal;
    ``strategy`` is one of A-D.  The returned rates are per served
    receiver; ``excluded`` lists the indices that decode nothing and
    take part in neither scheme.
    """
    return _run_trials(snr_db, weight, (strategy,), table, seed)[0]


def _run_trials(snr_db, weight, strategies, table, seed=0) -> list[tuple]:
    """``run_trial`` of one population under each of ``strategies``, in
    one pass: the checks, the classical rate, the sort and the solo
    receiver are done once, and each strategy's pairs are looked up in
    one ``pair_rate`` call for all of them."""
    for strategy in strategies:
        if strategy not in STRATEGIES:
            raise ParameterError(f"unknown strategy {strategy!r}")
    snr = np.asarray(snr_db, dtype=float)
    weight = _check_weights(weight)
    if snr.ndim != 1 or weight.shape != snr.shape:
        raise ParameterError("run_trial needs one weight per SNR, as 1-D arrays")
    if not np.isfinite(snr).all():
        raise ParameterError("snr_db must be finite")
    cache = table if isinstance(table, PairRateCache) else PairRateCache(table)
    rates = cache.best_single_rate(snr)
    decodes = rates > 0
    excluded = tuple(np.flatnonzero(~decodes).tolist())
    active = np.flatnonzero(decodes)
    if not active.size:
        raise DegenerateRateError(
            "no receiver can decode any modcod", receivers=excluded
        )
    # np.cumsum adds left to right, as the reference run_trial_scalar in
    # tests/oracles.py does; np.sum adds pairwise, which rounds differently
    classical = float(1.0 / np.cumsum(weight[active] / rates[active])[-1])

    pool = active[np.argsort(snr[active], kind="stable")]
    solo = np.empty(0)
    if len(pool) % 2:
        middle = pool[len(pool) // 2]  # keep the middle receiver single
        pool = np.delete(pool, len(pool) // 2)
        solo = np.array([weight[middle] / rates[middle]])
    # per strategy: the solo receiver, then each pair's inverse rate, the
    # pairs in ascending order of their smaller position in the pool
    inv = np.zeros((len(strategies), len(pool) // 2))
    if pool.size:
        v, w = check_snrs(snr[pool]), weight[pool]
        lo, hi = np.concatenate(
            [_by_smaller(pair_positions(s, v, seed)) for s in strategies], axis=1
        )
        inv = 1.0 / cache.pair_rate(v[lo], v[hi], w[lo], w[hi]).reshape(inv.shape)
    inv = np.hstack((np.broadcast_to(solo, (len(strategies), solo.size)), inv))
    hier = 1.0 / np.cumsum(inv, axis=1)[:, -1]
    gains = hierarchical_gain(hier, classical)
    return [(classical, h, g, excluded) for h, g in zip(hier.tolist(), gains.tolist())]


def _by_smaller(pairs: np.ndarray) -> np.ndarray:
    """A perfect matching of positions 0..n-1 as two rows, the smaller
    and the larger position of each pair, the pairs in ascending order
    of the smaller."""
    first, second = pairs[:, 0], pairs[:, 1]
    if (first < second).all() and (first[1:] > first[:-1]).all():
        return pairs.T  # already in that order, as strategies A and D give it
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
    if weather is None:
        weather = default_weather_cdf()
    if beam is None:
        beam = BeamConfig()
    shares = (0.0,) if mode == "homogeneous" else tuple(cfg.professional_share_grid)
    records = []
    for snr_max in cfg.snr_max_grid:
        for share in shares:
            for trial in range(cfg.n_trials):
                ss = _trial_seed(cfg.seed, snr_max, share, trial)
                pop_seed, strat_seed = ss.spawn(2)
                population = generate_population(
                    cfg.n_receivers, snr_max, beam, weather,
                    professional_share=share,
                    professional_weight=cfg.professional_weight,
                    seed=pop_seed,
                )
                if population_dir is not None:
                    name = f"population_snr{snr_max:g}_share{share:g}_trial{trial}.csv"
                    write_population(population, os.path.join(population_dir, name))
                trials = _run_trials(
                    population.snr_db, population.weight, cfg.strategies, cache, seed=strat_seed
                )
                for strategy, (classical, hier, gain, excluded) in zip(cfg.strategies, trials):
                    records.append(
                        GainRecord(
                            snr_max_db=snr_max, strategy=strategy, share=share,
                            trial=trial, classical_rate=classical,
                            hier_rate=hier, gain=gain, n_excluded=len(excluded),
                        )
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
