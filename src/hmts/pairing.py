"""Grouping receivers in pairs by SNR difference.

The matching objective is the average per-pair SNR difference Delta.
Pairing the extremes first (strategy A) attains the maximum Delta over
all perfect matchings; the closed-form bound from the sorted histogram
equals that maximum.  The strategies order receivers by (SNR, index),
which is what a stable argsort gives.

Each strategy is one core, ``pairs_a`` to ``pairs_d``, over SNRs already
sorted that way: it returns pairs of positions into them, as an array.
``STRATEGIES`` maps the names A-D to the cores.  ``run_strategy``
checks and sorts any SNR list, calls a core and wraps its pairs into a
``PairingPlan``; the simulation calls the cores through
``pair_positions`` and builds no plan.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "PairingPlan",
    "check_snrs",
    "pairs_a",
    "pairs_b",
    "pairs_c",
    "pairs_d",
    "pair_positions",
    "delta_upper_bound",
    "STRATEGIES",
    "run_strategy",
]


@dataclass(frozen=True)
class PairingPlan:
    """A perfect matching with its average SNR difference statistics."""

    pairs: tuple[tuple[int, int], ...]
    delta_avg: float
    delta_variance: float

    @classmethod
    def from_pairs(cls, snrs, pairs) -> "PairingPlan":
        """Plan of ``pairs``, index pairs into ``snrs`` (sequences or
        arrays); the pairs come out sorted, each as (smaller, larger)."""
        snrs = np.asarray(snrs, dtype=float)
        pairs = np.sort(np.asarray(pairs, dtype=np.intp).reshape(-1, 2), axis=1)
        diffs = np.abs(snrs[pairs[:, 0]] - snrs[pairs[:, 1]])
        n = len(diffs)
        # np.cumsum adds left to right, as the builtin sum on Python 3.11;
        # np.float_power squares with libm's pow, as ``**`` (not dev * dev)
        avg = float(np.cumsum(diffs)[-1] / n)
        var = float(np.cumsum(np.float_power(diffs - avg, 2))[-1] / n)
        pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
        return cls(pairs=tuple(map(tuple, pairs.tolist())), delta_avg=avg, delta_variance=var)


def check_snrs(snrs) -> np.ndarray:
    """``snrs`` as a float array, checked for pairing: an even count >= 2
    of finite SNRs whose pair differences have a finite mean and variance."""
    snrs = np.asarray(snrs, dtype=float)
    if len(snrs) < 2 or len(snrs) % 2:
        raise ParameterError(f"pairing requires an even receiver count >= 2, got {len(snrs)}")
    bad = np.flatnonzero(~np.isfinite(snrs)).tolist()
    if bad:
        raise ParameterError(f"pairing requires finite SNRs; receivers {bad} are not")
    # every pair difference is at most the spread, and the sums behind the
    # plan's mean and variance at most n/2 times the spread and its square
    spread = float(snrs.max()) - float(snrs.min())
    if not math.isfinite(spread * spread * (len(snrs) // 2)):
        raise ParameterError(
            f"pairing requires SNR differences whose mean and variance are "
            f"finite; the SNRs span {spread:g} dB"
        )
    return snrs


def pairs_a(v) -> np.ndarray:
    """Strategy A's core: pair the two receivers with the largest SNR
    difference, repeat; that is, position k with position n - 1 - k."""
    half = len(v) // 2
    k = np.arange(half)
    return np.column_stack((k, len(v) - 1 - k))


def _bisect_rows(lo, hi, reached) -> np.ndarray:
    """``bisect_left`` on many rows at once: for each row r, the first m
    in [lo[r], hi[r]) at which ``reached(rows, m)`` holds for row r, or
    hi[r] if there is none.  ``reached`` is called with the row numbers
    still searching and one midpoint for each, and returns a bool array;
    like ``bisect_left``'s key it must be monotone in m along each row."""
    lo = np.array(lo, dtype=np.intp)
    hi = np.array(hi, dtype=np.intp)
    rows = np.flatnonzero(lo < hi)
    while rows.size:
        mid = (lo[rows] + hi[rows]) // 2
        ok = reached(rows, mid)
        hi[rows[ok]] = mid[ok]
        lo[rows[~ok]] = mid[~ok] + 1
        rows = rows[lo[rows] < hi[rows]]
    return lo


def pairs_b(v) -> np.ndarray:
    """Strategy B's core: pair receivers whose SNR difference is closest
    to the maximum average difference (strategy A's), greedily.

    Candidate pairs i < j are taken in order of closeness
    ``abs(abs(v[i] - v[j]) - target)``, then i, then j, skipping any
    that reuse a receiver.  A heap holds each receiver's best candidate
    partner; each receiver walks its partners in (closeness, j) order
    outward from the first j whose computed difference v[j] - v[i]
    reaches the target, so time is O(n log n) in the usual case and
    memory O(n).  That first j is found for every receiver at once by
    ``np.searchsorted`` on v[i] + target and then checked on the
    computed differences; only the receivers where the two disagree
    (v[i] + target rounds differently) are bisected on the differences
    themselves.  The greedy walk is a Python loop.
    """
    va = np.asarray(v)
    n = len(va)
    half = n // 2
    # strategy A's delta_avg: the same differences, added in the same order
    target = float(np.cumsum(np.abs(va[:half] - va[::-1][:half]))[-1] / half)

    # partners j >= right[i] lie at or above the target and come out in
    # ascending j; below it, closeness grows as j falls, and a run of
    # equal closeness [run_lo[i], run_hi[i]] comes out in ascending j
    # from left[i].  Both searches end on the computed difference
    # v[j] - v[i] (and gap), never on v[i] + target alone; runs are of
    # equal gap, since distinct differences can round to one gap
    rows = np.arange(n)
    split = np.clip(np.searchsorted(va, va + target), rows + 1, n)
    # the split's difference reaches the target and the one before it
    # falls short; the rows where either fails are bisected
    reaches = (split == n) | (va[np.minimum(split, n - 1)] - va >= target)
    short_before = (split == rows + 1) | (va[split - 1] - va < target)
    miss = np.flatnonzero(~(reaches & short_before))
    split[miss] = _bisect_rows(miss + 1, np.full(miss.size, n),
                               lambda r, m: va[m] - va[miss[r]] >= target)
    k = split - 1
    has_left = k > rows
    gap = (va[k] - va) - target
    run_lo = np.where(has_left, k, rows + 1)
    run_hi = np.where(has_left, k, rows)
    # a run longer than one: v[k - 1] is as far below the target as v[k]
    tied = np.flatnonzero(has_left & ((va[k - 1] - va) - target >= gap))
    run_lo[tied] = _bisect_rows(
        tied + 1, k[tied], lambda r, m: (va[m] - va[tied[r]]) - target >= gap[tied[r]]
    )
    # each receiver's first entry: the nearer of the run's first j and
    # the split, a tie going to the smaller j
    c_left = np.abs(np.abs(va - va[np.where(has_left, run_lo, rows)]) - target)
    has_right = split < n
    c_right = np.abs(np.abs(va - va[np.minimum(split, n - 1)]) - target)
    take_right = has_right & (~has_left | (c_right < c_left))
    first = has_left | has_right
    heap = list(zip(
        np.where(take_right, c_right, c_left)[first].tolist(),
        rows[first].tolist(),
        np.where(take_right, split, run_lo)[first].tolist(),
    ))
    heapq.heapify(heap)

    v = va.tolist()
    right = split.tolist()
    left = np.where(has_left, run_lo, split).tolist()
    run_lo = run_lo.tolist()
    run_hi = run_hi.tolist()

    # path-compressed "next unused" pointers: up[k] leads to the smallest
    # unused index >= k (n is a sentinel), down[k + 1] to the largest
    # unused index <= k (-1 is a sentinel)
    up = list(range(n + 1))
    down = list(range(n + 1))
    heappop, heapreplace = heapq.heappop, heapq.heapreplace
    pairs = []
    while True:
        _, i, b = heap[0]
        if up[i] != i:
            heappop(heap)
            continue
        if up[b] == b:
            heappop(heap)
            up[i] = i + 1
            down[i + 1] = i
            up[b] = b + 1
            down[b + 1] = b
            pairs.append((i, b))
            if len(pairs) == half:
                return np.array(pairs)
            continue
        # b is taken: replace i's entry by its best unused partner j > i
        vi = v[i]
        j = left[i]  # the first unused index >= left[i]
        while up[j] != j:
            up[j] = up[up[j]]
            j = up[j]
        left[i] = j
        if j > run_hi[i]:
            # the run is used up: the next one ends at the last unused
            # index below it
            k = run_lo[i]
            while down[k] != k:
                down[k] = down[down[k]]
                k = down[k]
            k -= 1
            if k > i:
                gap = (v[k] - vi) - target
                if (v[k - 1] - vi) - target < gap:  # a run of one
                    lo = k
                else:
                    lo = bisect_left(v, gap, i + 1, k, key=lambda x: (x - vi) - target)
                run_lo[i], run_hi[i] = lo, k
                j = lo
                while up[j] != j:
                    up[j] = up[up[j]]
                    j = up[j]
                left[i] = j
            else:
                run_lo[i], run_hi[i] = i + 1, i
                j = -1
        r = right[i]
        while up[r] != r:
            up[r] = up[up[r]]
            r = up[r]
        right[i] = r
        # the closeness abs(abs(v[i] - v[j]) - target), without the abs:
        # the differences of j below the split fall short of the target
        # and those of r reach it, and rounding is symmetric in sign
        if j < 0:
            if r < n:
                heapreplace(heap, ((v[r] - vi) - target, i, r))
            else:
                heappop(heap)
        else:
            c_left = target - (v[j] - vi)
            if r < n:
                c_right = (v[r] - vi) - target
                if c_right < c_left:  # a tie goes to the smaller j
                    heapreplace(heap, (c_right, i, r))
                    continue
            heapreplace(heap, (c_left, i, j))


def pairs_c(v, seed=0) -> np.ndarray:
    """Strategy C's core: a uniformly random perfect matching,
    reproducible per seed."""
    return np.random.default_rng(seed).permutation(len(v)).reshape(-1, 2)


def pairs_d(v) -> np.ndarray:
    """Strategy D's core: pair the receivers with the closest SNRs
    (sorted-adjacent); attains the minimum average SNR difference."""
    return np.arange(len(v)).reshape(-1, 2)


STRATEGIES = {
    "A": pairs_a,
    "B": pairs_b,
    "C": pairs_c,
    "D": pairs_d,
}


def pair_positions(strategy: str, v, seed=0) -> np.ndarray:
    """Pair the sorted SNRs ``v`` (checked by ``check_snrs``) with
    strategy A-D, looked up in ``STRATEGIES`` at each call; only the
    random strategy C draws from ``seed``.

    Returns an (n/2, 2) array of positions into ``v``, one row per
    pair, in the order the strategy picks them: the order in which
    ``PairingPlan`` adds up their differences.
    """
    fn = STRATEGIES[strategy]
    return fn(v, seed) if strategy == "C" else fn(v)


def run_strategy(strategy: str, snrs, seed=0) -> PairingPlan:
    """Pair ``snrs`` with strategy A-D, looked up in ``STRATEGIES`` at
    each call; only the random strategy C draws from ``seed``."""
    snrs = check_snrs(snrs)
    order = np.argsort(snrs, kind="stable")
    return PairingPlan.from_pairs(snrs, order[pair_positions(strategy, snrs[order], seed)])


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

