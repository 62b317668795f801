"""Achievable equal-rate allocations for receiver pairs and populations.

Classical time sharing serves each receiver with its best single-stream
modcod for a fraction of time; the common rate is the (weighted) harmonic
combination of the individual rates.  Adding hierarchical configurations
gives a set of two-receiver operating points whose convex hull (with time
sharing mixtures) can cross the equal-rate diagonal above the classical
point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import ModCod, ThresholdTable, best_entry
from .errors import DegenerateRateError, InvariantError, ParameterError

__all__ = [
    "RatePair",
    "Allocation",
    "ts_rate_two",
    "ts_rate_n",
    "operating_points",
    "convex_hull",
    "augmented_hull",
    "equal_rate_point",
    "max_min_weighted",
    "pair_gain",
    "hierarchical_gain",
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


@dataclass(frozen=True)
class Allocation:
    """Time fractions per receiver plus the common per-receiver rate."""

    fractions: tuple[float, ...]
    per_receiver_rate: float


def ts_rate_two(r1: float, r2: float) -> Allocation:
    """Equal-rate time sharing between two receivers.

    t1 = r2/(r1+r2) and the common rate is r1*r2/(r1+r2).
    """
    if r1 <= 0 or r2 <= 0:
        raise DegenerateRateError(
            f"time sharing requires positive rates, got ({r1}, {r2})"
        )
    total = r1 + r2
    return Allocation(fractions=(r2 / total, r1 / total), per_receiver_rate=r1 * r2 / total)


def ts_rate_n(rates, weights=None) -> Allocation:
    """Equal per-receiver rate over n terminals, weight = receivers served.

    Time fractions are proportional to weight/rate; the per-receiver rate
    is the weighted harmonic form (sum_j w_j/R_j)**-1.
    """
    rates = list(rates)
    if not rates:
        raise ParameterError("rates must be nonempty")
    if weights is None:
        weights = [1] * len(rates)
    else:
        weights = list(weights)
    if len(weights) != len(rates):
        raise ParameterError("one weight per rate required")
    zero = [i for i, r in enumerate(rates) if r <= 0]
    if zero:
        raise DegenerateRateError(
            f"receivers {zero} have zero rate and cannot join the allocation",
            receivers=tuple(zero),
        )
    for w in weights:
        if not (isinstance(w, int) or float(w).is_integer()) or w < 1:
            raise ParameterError(f"weights must be integers >= 1, got {w}")
    if len(rates) == 2:
        # product form avoids the reciprocal round trip and agrees exactly
        # with ts_rate_two for unit weights
        (r1, r2), (w1, w2) = rates, weights
        denom = w1 * r2 + w2 * r1
        return Allocation(
            fractions=(w1 * r2 / denom, w2 * r1 / denom),
            per_receiver_rate=r1 * r2 / denom,
        )
    inv = [w / r for w, r in zip(weights, rates)]
    denom = sum(inv)
    rate = 1.0 / denom
    return Allocation(fractions=tuple(x / denom for x in inv), per_receiver_rate=rate)


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
    r_ts = ts_rate_two(r1, r2).per_receiver_rate
    return hierarchical_gain(equal_rate_point(points), r_ts)


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
