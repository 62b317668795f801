"""Achievable equal-rate allocations for receiver pairs and populations.

Classical time sharing serves each receiver with its best single-stream
modcod for a fraction of time; the common rate is the (weighted) harmonic
combination of the individual rates, ``ts_rate_n``.  Adding hierarchical
configurations gives a set of two-receiver operating points whose convex
hull (with time sharing mixtures) can cross the equal-rate diagonal above
the classical point.  ``PairRateCache`` tabulates these rates per threshold bucket, for
looking up many receivers and pairs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .capacity import ModCod, ThresholdTable, best_entry
from .errors import DegenerateRateError, InvariantError, ParameterError

__all__ = [
    "RatePair",
    "ts_rate_two",
    "ts_rate_n",
    "operating_points",
    "convex_hull",
    "augmented_hull",
    "equal_rate_point",
    "max_min_weighted",
    "pair_gain",
    "hierarchical_gain",
    "PairRateCache",
]


@dataclass(frozen=True)
class RatePair:
    """Rates (bit/symbol) for the worse- and better-SNR receiver of a pair
    under one transmission configuration."""

    r1: float
    r2: float
    source: str = ""

    def __post_init__(self):
        if self.r1 < 0 or self.r2 < 0:
            raise ParameterError(f"rates must be >= 0, got ({self.r1}, {self.r2})")


def ts_rate_two(r1, r2):
    """Equal-rate time sharing between two receivers: the common rate
    r1*r2/(r1+r2), receiver 1 served a fraction r2/(r1+r2) of the time.

    A float for floats, element by element for arrays that broadcast
    (empty ones too); a rate <= 0 raises DegenerateRateError.
    """
    if (np.less_equal(r1, 0) | np.less_equal(r2, 0)).any():
        raise DegenerateRateError(
            f"time sharing requires positive rates, got ({r1}, {r2})"
        )
    return r1 * r2 / (r1 + r2)


def ts_rate_n(rates, weights=1):
    """Classical equal per-receiver rate of each row of ``rates``, weight
    = receivers served: the weighted harmonic form (sum_j w_j/R_j)**-1.

    Rates and weights broadcast along the last axis, and the sum runs
    left to right along it.  A rate of 0 is left out: that receiver
    decodes nothing.  A row with no positive rate raises
    DegenerateRateError, and a negative, infinite or NaN rate
    ParameterError.
    """
    r = np.asarray(rates, dtype=float)
    w = _check_weights(weights)
    if not ((0 <= r) & (r < math.inf)).all():  # NaN fails too
        raise ParameterError("rates must be finite numbers >= 0")
    served = r > 0
    if not served.any(axis=-1).all():
        raise DegenerateRateError("no receiver of a row has a positive rate")
    inv = np.divide(w, r, out=np.zeros(np.broadcast_shapes(w.shape, r.shape)), where=served)
    # np.cumsum adds left to right (np.sum adds pairwise, which rounds
    # differently)
    return 1.0 / np.cumsum(inv, axis=-1)[..., -1]


def operating_points(snr1: float, snr2: float, table: ThresholdTable) -> list[RatePair]:
    """Two-receiver operating points for the given SNRs (dB).

    The first two are the classical points (best single rate at the lower
    SNR, 0) and (0, best single rate at the higher SNR), 0 where nothing
    decodes; each hierarchical modulation in the table contributes the
    pair (best HE rate decodable at the lower SNR, best LE rate decodable
    at the higher SNR) when both streams are decodable.  The better
    receiver takes the LE stream, decoding the HE stream first.
    """
    s1, s2 = sorted((snr1, snr2))
    lo = best_entry(table.singles(), s1)
    hi = best_entry(table.singles(), s2)
    points = [
        RatePair(lo.spectral_efficiency if lo else 0.0, 0.0, source=_source(lo)),
        RatePair(0.0, hi.spectral_efficiency if hi else 0.0, source=_source(hi)),
    ]
    for mod in table.hierarchical_modulations():
        he = best_entry(table.entries_for(mod, "HE"), s1)
        le = best_entry(table.entries_for(mod, "LE"), s2)
        if he and le:
            points.append(
                RatePair(he.spectral_efficiency, le.spectral_efficiency,
                         source=f"{_source(he)} + {_source(le)}")
            )
    return points


def _source(e: ModCod | None) -> str:
    if e is None:
        return "none"
    if e.stream == "single":
        return f"{e.modulation} {e.code_rate}"
    return f"{e.modulation} {e.code_rate} {e.stream}"


def convex_hull(points) -> list[tuple[float, float]]:
    """Convex hull (counter-clockwise, monotone chain) of 2-D points."""
    pts = sorted(set((float(x), float(y)) for x, y in points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def augmented_hull(xy) -> list[tuple[float, float]]:
    """Convex hull of the points ``xy``, their axis projections and the
    origin: the region reachable by time sharing between them."""
    pts = [(0.0, 0.0)]
    for x, y in xy:
        pts.append((x, y))
        pts.append((x, 0.0))
        pts.append((0.0, y))
    return convex_hull(pts)


def _segment_best_min(p, q) -> float:
    """max over the segment p-q of min(x, y), solved analytically."""
    best = max(min(p), min(q))
    dx = q[0] - p[0]
    dy = q[1] - p[1]
    denom = dx - dy
    if denom != 0.0:
        t = (p[1] - p[0]) / denom
        if 0.0 < t < 1.0:
            best = max(best, p[0] + t * dx)
    return best


def max_min_weighted(points, w1: float = 1.0, w2: float = 1.0) -> float:
    """max over the hull of time-sharing mixtures of min(x/w1, y/w2)."""
    hull = augmented_hull([(p.r1 / w1, p.r2 / w2) for p in points])
    # never empty (the origin); a one-point hull pairs the point with itself
    return max(_segment_best_min(p, q) for p, q in zip(hull, hull[1:] + hull[:1]))


def equal_rate_point(points) -> float:
    """Common rate at the intersection of the achievable hull with the
    equal-rate diagonal."""
    points = list(points)
    if not points:
        raise ParameterError("points must be nonempty")
    if not any(p.r1 > 0 for p in points):
        raise DegenerateRateError("no configuration gives receiver 1 a positive rate")
    if not any(p.r2 > 0 for p in points):
        raise DegenerateRateError("no configuration gives receiver 2 a positive rate")
    return max_min_weighted(points)


def pair_gain(snr1: float, snr2: float, table: ThresholdTable) -> float:
    """Relative rate gain of hierarchical-modulation time sharing over
    classical time sharing for one receiver pair."""
    points = operating_points(snr1, snr2, table)
    r1, r2 = points[0].r1, points[1].r2
    if r1 <= 0 or r2 <= 0:
        s1, s2 = sorted((snr1, snr2))
        raise DegenerateRateError(
            f"receiver cannot decode any modcod at ({s1}, {s2}) dB"
        )
    return hierarchical_gain(equal_rate_point(points), ts_rate_two(r1, r2))


def hierarchical_gain(hier, classical):
    """Relative gain ``hier / classical - 1``, clamped at 0: a float for
    floats, element by element for arrays (empty ones too).

    The hull contains the classical points, so a loss beyond rounding
    (below -1e-9) is a bug and raises InvariantError.
    """
    gain = np.asarray(hier, dtype=float) / classical - 1.0
    if (gain < -1e-9).any():
        raise InvariantError(
            f"hierarchical rate fell below the classical rate; gain={np.nanmin(gain):.3e}"
        )
    gain = np.maximum(gain, 0.0)
    return gain if gain.ndim else float(gain)


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
        if swap.any():  # the worse receiver of each pair first
            b1, b2 = np.where(swap, b2, b1), np.where(swap, b1, b2)
            w1, w2 = np.where(swap, w2, w1), np.where(swap, w1, w2)
        b_lo, b_hi, w_lo, w_hi = np.broadcast_arrays(b1, b2, w1, w2)
        if w_lo.size and w_lo.min() == w_lo.max() and w_hi.min() == w_hi.max():
            # one weight pair, the usual case: no masks
            return self.pair_table(int(w_lo.flat[0]), int(w_hi.flat[0]))[b_lo, b_hi]
        out = np.empty(b_lo.shape)
        for u, v in set(zip(w_lo.ravel().tolist(), w_hi.ravel().tolist())):
            sel = (w_lo == u) & (w_hi == v)
            out[sel] = self.pair_table(u, v)[b_lo[sel], b_hi[sel]]
        return out[()]

    def pair_table(self, w_lo: int, w_hi: int) -> np.ndarray:
        """Pair rates [b_lo, b_hi] of the weight pair (w_lo, w_hi),
        meaningful for b_lo <= b_hi; tabulated on the first call, each
        distinct (worse, better) offer pair computed once."""
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
    """``max_min_weighted`` of many point sets at once, value for
    value.

    Row k of ``lo`` holds (single, HE of each hierarchical modulation)
    of the worse receiver and row k of ``hi`` (single, LE of each) of
    the better one, both divided by the weights; 0 means nothing
    decodes.  The point set is ``augmented_hull``'s.  Its lower
    chain is always the origin, (max x, 0) and (max x, max y there):
    every pop decision on the way multiplies by an exact zero.  Those
    two edges give 0 and the min of the upper chain's first vertex, so
    the max over the hull is the max over the upper chain's edges,
    including the closing edge to the origin.  The upper chain is
    rebuilt here with the same sort, the same cross products and the
    same pops, and each edge gets ``_segment_best_min``'s
    arithmetic, so no value is computed another way.

    ``max_min_weighted`` stays for single pairs: one row here
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
