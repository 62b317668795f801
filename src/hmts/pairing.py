"""Grouping receivers in pairs by SNR difference.

The matching objective is the average per-pair SNR difference Delta.
Pairing the extremes first (strategy A) attains the maximum Delta over
all perfect matchings; the closed-form bound from the sorted histogram
equals that maximum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "PairingPlan",
    "strategy_a",
    "strategy_b",
    "strategy_c",
    "strategy_d",
    "delta_upper_bound",
    "brute_force_matching",
    "STRATEGIES",
    "run_strategy",
]

_BRUTE_FORCE_CAP = 12


@dataclass(frozen=True)
class PairingPlan:
    """A perfect matching with its average SNR difference statistics."""

    pairs: tuple[tuple[int, int], ...]
    delta_avg: float
    delta_variance: float

    @classmethod
    def from_pairs(cls, snrs, pairs) -> "PairingPlan":
        diffs = [abs(snrs[i] - snrs[j]) for i, j in pairs]
        n = len(diffs)
        avg = sum(diffs) / n
        var = sum((d - avg) ** 2 for d in diffs) / n
        return cls(
            pairs=tuple(sorted(tuple(sorted(p)) for p in pairs)),
            delta_avg=avg,
            delta_variance=var,
        )


def _check_even(snrs) -> list[float]:
    snrs = [float(s) for s in snrs]
    if len(snrs) < 2 or len(snrs) % 2:
        raise ParameterError(f"pairing requires an even receiver count >= 2, got {len(snrs)}")
    bad = [i for i, s in enumerate(snrs) if not math.isfinite(s)]
    if bad:
        raise ParameterError(f"pairing requires finite SNRs; receivers {bad} are not")
    return snrs


def _sorted_order(snrs) -> list[int]:
    return sorted(range(len(snrs)), key=lambda i: (snrs[i], i))


def strategy_a(snrs) -> PairingPlan:
    """Pair the two receivers with the largest SNR difference, repeat.

    Equivalent to pairing the k-th smallest with the k-th largest; attains
    the maximum average SNR difference over all perfect matchings.
    """
    snrs = _check_even(snrs)
    order = _sorted_order(snrs)
    n = len(order)
    pairs = [(order[k], order[n - 1 - k]) for k in range(n // 2)]
    return PairingPlan.from_pairs(snrs, pairs)


def strategy_b(snrs) -> PairingPlan:
    """Pair receivers whose SNR difference is closest to the maximum
    average difference, greedily; variance of the per-pair difference is
    typically much smaller than strategy A's."""
    snrs = _check_even(snrs)
    target = strategy_a(snrs).delta_avg
    order = _sorted_order(snrs)
    values = np.array([snrs[i] for i in order])
    n = len(order)
    iu, ju = np.triu_indices(n, k=1)
    closeness = np.abs(np.abs(values[iu] - values[ju]) - target)
    ranking = np.lexsort((ju, iu, closeness))
    used = np.zeros(n, dtype=bool)
    pairs = []
    for k in ranking:
        a, b = iu[k], ju[k]
        if used[a] or used[b]:
            continue
        used[a] = used[b] = True
        pairs.append((order[a], order[b]))
        if len(pairs) == n // 2:
            break
    return PairingPlan.from_pairs(snrs, pairs)


def strategy_c(snrs, seed=0) -> PairingPlan:
    """Uniformly random perfect matching, reproducible per seed."""
    snrs = _check_even(snrs)
    rng = np.random.default_rng(seed)
    order = _sorted_order(snrs)
    perm = rng.permutation(len(order))
    shuffled = [order[k] for k in perm]
    pairs = [(shuffled[2 * k], shuffled[2 * k + 1]) for k in range(len(order) // 2)]
    return PairingPlan.from_pairs(snrs, pairs)


def strategy_d(snrs) -> PairingPlan:
    """Pair the receivers with the closest SNRs (sorted-adjacent); attains
    the minimum average SNR difference."""
    snrs = _check_even(snrs)
    order = _sorted_order(snrs)
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(len(order) // 2)]
    return PairingPlan.from_pairs(snrs, pairs)


STRATEGIES = {
    "A": strategy_a,
    "B": strategy_b,
    "C": strategy_c,
    "D": strategy_d,
}


def run_strategy(strategy: str, snrs, seed=0) -> PairingPlan:
    """Pair ``snrs`` with strategy A-D, looked up in ``STRATEGIES`` at
    each call; only the random strategy C draws from ``seed``."""
    fn = STRATEGIES[strategy]
    return fn(snrs, seed) if strategy == "C" else fn(snrs)


def delta_upper_bound(histogram) -> float:
    """Upper bound on the average SNR difference from level counts.

    ``histogram`` maps SNR level -> receiver count (or is an iterable of
    such pairs).  The bound sums min(prefix, suffix) * gap over adjacent
    sorted levels and is attained by strategy A.
    """
    if hasattr(histogram, "items"):
        items = list(histogram.items())
    else:
        items = [(float(level), int(count)) for level, count in histogram]
    items.sort(key=lambda kv: kv[0])
    if not items:
        raise ParameterError("histogram must be nonempty")
    counts = [c for _, c in items]
    if any(c < 0 for c in counts):
        raise ParameterError("counts must be >= 0")
    total = sum(counts)
    if total == 0 or total % 2:
        raise ParameterError(f"total receiver count must be even and > 0, got {total}")
    n_pairs = total // 2
    bound = 0.0
    prefix = 0
    for (lo, c), (hi, _) in zip(items, items[1:]):
        prefix += c
        a_i = min(prefix, total - prefix)
        bound += a_i * (hi - lo)
    return bound / n_pairs


def _matchings(indices):
    if not indices:
        yield []
        return
    first, rest = indices[0], indices[1:]
    for k in range(len(rest)):
        partner = rest[k]
        remaining = rest[:k] + rest[k + 1:]
        for tail in _matchings(remaining):
            yield [(first, partner)] + tail


def brute_force_matching(snrs, objective: str = "max") -> PairingPlan:
    """Exact optimum of the average SNR difference by enumerating all
    perfect matchings; limited to 12 receivers."""
    snrs = _check_even(snrs)
    if len(snrs) > _BRUTE_FORCE_CAP:
        raise ParameterError(
            f"brute force is limited to {_BRUTE_FORCE_CAP} receivers, got {len(snrs)}"
        )
    if objective not in ("max", "min"):
        raise ParameterError(f"objective must be 'max' or 'min', got {objective!r}")
    sign = 1.0 if objective == "max" else -1.0
    best = None
    best_score = -math.inf
    for pairs in _matchings(tuple(range(len(snrs)))):
        score = sign * sum(abs(snrs[i] - snrs[j]) for i, j in pairs)
        if score > best_score:
            best_score = score
            best = pairs
    return PairingPlan.from_pairs(snrs, best)
