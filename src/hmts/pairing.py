"""Grouping receivers in pairs by SNR difference.

The matching objective is the average per-pair SNR difference Delta.
Pairing the extremes first (strategy A) attains the maximum Delta over
all perfect matchings; the closed-form bound from the sorted histogram,
``delta_upper_bound`` in tests/oracles.py, equals that maximum.  The
strategies order receivers by (SNR, index), which is what a stable
argsort gives.

Each strategy is one core, ``pairs_a`` to ``pairs_d``, over a batch of
rows of SNRs, each sorted that way, and one seed per row: it returns
each row's pairs of positions into it, as an array.  A and D are closed
forms and C seeds each row.  B pairs the whole batch in two phases:
rounds of mutually-best pairs, vectorised over all rows, then a heap
walk over each row's remaining receivers; ``pairs_b`` says why that is
B's greedy.  ``STRATEGIES`` maps the names A-D to the cores, and
``pair_positions`` looks them up there at each call.  ``run_strategy``
checks and sorts any SNR list, pairs it as a batch of one row and wraps
the pairs into a ``PairingPlan``; the simulation pairs all trials of a
batch with one ``pair_positions`` call per strategy and builds no plan.
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


def pairs_a(rows, seeds) -> list[np.ndarray]:
    """Strategy A's core: pair the two receivers with the largest SNR
    difference, repeat; that is, position k with position n - 1 - k."""
    out = []
    for v in rows:
        k = np.arange(len(v) // 2)
        out.append(np.column_stack((k, len(v) - 1 - k)))
    return out


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


def _search_rows(v, keys, bounds, side) -> np.ndarray:
    """``np.searchsorted`` of each receiver's key in its own row of the
    flat array ``v``, whose row r is v[bounds[r]:bounds[r + 1]]; as
    positions into ``v``."""
    out = np.empty(len(v), dtype=np.intp)
    for a, b in zip(bounds, bounds[1:]):
        out[a:b] = np.searchsorted(v[a:b], keys[a:b], side) + a
    return out


def _above(v, t, e, hi, bounds):
    """Each receiver's best partner j above it in its row of the flat
    array ``v`` (rows as in ``_search_rows``); ``t``, ``e`` and ``hi``
    hold each receiver's target, position and row end.

    Partners j >= split lie at or above the target and come out in
    ascending j; below it, closeness grows as j falls, and a run of
    equal closeness [run_lo, split - 1] comes out in ascending j.  The
    split is ``np.searchsorted`` on v + t, checked on the computed
    differences v[j] - v[i]; only the receivers where the two disagree
    (v + t rounds differently) are bisected on the differences
    themselves.  Runs are of equal gap, since distinct differences can
    round to one gap.  Returns split, run_lo, whether there is a partner
    below the split, and the best partner's closeness and position, with
    whether there is one.  The steps run in place where they can, with
    the bits of the expressions in the comments.
    """
    top = len(v) - 1
    split = _search_rows(v, v + t, bounds, "left")
    np.clip(split, e + 1, hi, out=split)
    # the split's difference reaches the target and the one before it
    # falls short; the receivers where either fails are bisected
    miss = np.flatnonzero(~(((split == hi) | (v[np.minimum(split, top)] - v >= t))
                            & ((split == e + 1) | (v[split - 1] - v < t))))
    split[miss] = _bisect_rows(miss + 1, hi[miss],
                               lambda r, m: v[m] - v[miss[r]] >= t[miss[r]])
    k = split - 1
    has_left = k > e
    gap = v[k]
    gap -= v
    gap -= t  # (v[k] - v) - t
    # a run longer than one: v[k - 1] is as far below the target as v[k]
    tied = np.flatnonzero(has_left & ((v[k - 1] - v) - t >= gap))
    run_lo = k
    run_lo += ~has_left  # e + 1 where no partner is below the split
    run_lo[tied] = _bisect_rows(
        tied + 1, k[tied], lambda r, m: (v[m] - v[tied[r]]) - t[tied[r]] >= gap[tied[r]]
    )
    del gap
    # the nearer of the run's first j and the split, a tie going to the
    # smaller j; abs(abs(v - v[j]) - t) for each
    c = v[np.where(has_left, run_lo, e)]
    c_right = v[np.minimum(split, top)]
    for a in (c, c_right):
        a -= v
        np.abs(a, out=a)
        a -= t
        np.abs(a, out=a)
    has_right = split < hi
    take_right = has_right & (~has_left | (c_right < c))
    c[take_right] = c_right[take_right]
    return split, run_lo, has_left, c, np.where(take_right, split, run_lo), has_left | has_right


def _below(v, t, e, lo, bounds):
    """``_above``'s mirror: each receiver's best partner i below it, as
    (closeness, i, whether there is one); ``lo`` holds the row starts.

    q is the first i whose difference v[x] - v[i] falls short of the
    target (``np.searchsorted`` on v - t, checked and bisected as the
    split is); below it, closeness grows as i falls, so q is the best
    there.  From q - 1 down, the differences reach the target and
    closeness grows as i falls, so the best there is the first i of
    q - 1's run of equal gap.  A tie goes to the smaller i.
    """
    q = _search_rows(v, v - t, bounds, "right")
    np.clip(q, lo, e, out=q)
    miss = np.flatnonzero(~(((q == e) | (v - v[q] < t))
                            & ((q == lo) | (v - v[q - 1] >= t))))
    q[miss] = _bisect_rows(lo[miss], miss, lambda r, m: v[miss[r]] - v[m] < t[miss[r]])
    has_near = q < e
    c_near = v - v[q]
    c_near -= t
    np.abs(c_near, out=c_near)  # abs((v - v[q]) - t)
    p = q - 1
    has_far = p >= lo
    gap = v - v[p]
    gap -= t  # (v - v[p]) - t, the closeness where has_far
    tied = np.flatnonzero(has_far & (p > lo) & ((v - v[p - 1]) - t <= gap))
    p[tied] = _bisect_rows(
        lo[tied], p[tied], lambda r, m: (v[tied[r]] - v[m]) - t[tied[r]] <= gap[tied[r]]
    )
    take_near = has_near & (~has_far | (c_near < gap))
    gap[take_near] = c_near[take_near]
    p[take_near] = q[take_near]
    return gap, p, has_near | has_far


def _best_partners(v, t, lo, hi, bounds) -> np.ndarray:
    """Each receiver's best partner in its row, above or below it (the
    arguments as for ``_above`` and ``_below``)."""
    e = np.arange(len(v))
    c_up, j_up, has_up = _above(v, t, e, hi, bounds)[3:]
    c_down, partner, has_down = _below(v, t, e, lo, bounds)
    # a tie goes to the partner below: its pair's smaller index is lower
    up = has_up & (~has_down | (c_up < c_down))
    partner[up] = j_up[up]
    return partner


# the rounds stop after the first that pairs fewer than 1/_STOP of the
# receivers still free.  On the 50 pools of the homogeneous_500 sweep
# (seed 1) that is 5 rounds a batch of 10, leaving 21 % of the receivers
# to the walk, as at n = 20,000; B took 0.547, 0.525, 0.536 and
# 0.795 ms a trial with 1/4, 1/8, 1/16 and 1/32 (medians of 40
# interleaved passes, 2-vCPU virtual machine)
_STOP = 8


def pairs_b(rows, seeds) -> list[np.ndarray]:
    """Strategy B's core: pair receivers whose SNR difference is closest
    to the maximum average difference (strategy A's), greedily.

    Candidate pairs i < j of a row are taken in order of closeness
    ``abs(abs(v[i] - v[j]) - target)``, then i, then j, skipping any
    that reuse a receiver; the target is the row's and stays fixed.
    This order is strict, so a pair that is the best pair of both its
    receivers comes before every other pair of either: the greedy finds
    both free and takes it, and skips every other pair of either, so
    taking such pairs out leaves the greedy on the other receivers as it
    was.  So the core runs in two phases over all rows of the batch at
    once:

    1. Rounds, vectorised over the batch: every free receiver finds its
       best partner above (``_above``) and below (``_below``), every
       mutually-best pair is taken, and the free receivers are
       compacted, in order, so every key and tie-break stays the same.
       The rounds stop once one pairs fewer than 1/8 of the receivers
       still free.
    2. The heap walk (``_walk``) on each row's remaining receivers.

    Each row's pairs come out sorted by the key: the greedy's pick order.
    """
    if not rows:
        return []
    sizes = [len(r) for r in rows]
    ends = np.cumsum(sizes)  # where each row ends in the batch
    v = np.concatenate(rows)
    targets = []
    for r in rows:
        # strategy A's delta_avg: the same differences, added in the same order
        half = len(r) // 2
        targets.append(float(np.cumsum(np.abs(r[:half] - r[::-1][:half]))[-1] / half))
    row_target = np.array(targets)

    def layout(free):
        """The free receivers' values, targets, row starts and ends, and
        the row bounds, among the free receivers."""
        counts = np.bincount(np.searchsorted(ends, free, "right"), minlength=len(rows))
        bounds = np.concatenate(([0], np.cumsum(counts)))
        return (v[free], np.repeat(row_target, counts), np.repeat(bounds[:-1], counts),
                np.repeat(bounds[1:], counts), bounds.tolist())

    free = np.arange(len(v))  # batch positions of the free receivers
    firsts, seconds = [], []
    while free.size:
        partner = _best_partners(*layout(free))
        e = np.arange(len(partner))
        mutual = partner[partner] == e
        x = np.flatnonzero(mutual & (partner > e))
        firsts.append(free[x])
        seconds.append(free[partner[x]])
        free = free[~mutual]
        if 2 * len(x) * _STOP < len(partner):
            break

    if free.size:
        fv, t, lo, hi, bounds = layout(free)
        e = np.arange(len(fv))
        split, run_lo, has_left, c, j, has = _above(fv, t, e, hi, bounds)
        # the walk's positions start at 0 in each row
        lists = [arr.tolist() for arr in (
            split - lo, np.where(has_left, run_lo, split) - lo, run_lo - lo,
            np.where(has_left, split - 1, e) - lo, e - lo, j - lo)]
        c = c.tolist()
        has = has.tolist()
        for r, (a, b) in enumerate(zip(bounds, bounds[1:])):
            if a == b:
                continue
            right, left, r_lo, r_hi, i_loc, j_loc = (arr[a:b] for arr in lists)
            heap = [(ci, i, ji) for ci, i, ji, h in zip(c[a:b], i_loc, j_loc, has[a:b]) if h]
            walked = np.array(_walk(fv[a:b].tolist(), targets[r], heap,
                                    right, left, r_lo, r_hi)) + a
            firsts.append(free[walked[:, 0]])
            seconds.append(free[walked[:, 1]])

    first, second = np.concatenate(firsts), np.concatenate(seconds)
    row = np.searchsorted(ends, first, "right")
    order = np.lexsort((first, np.abs((v[second] - v[first]) - row_target[row]), row))
    pairs = np.column_stack((first[order], second[order])) - (ends - sizes)[row[order], None]
    return np.split(pairs, ends[:-1] // 2)


def _walk(v, target, heap, right, left, run_lo, run_hi) -> list[tuple[int, int]]:
    """Strategy B's greedy on the sorted SNRs ``v`` (a list) of one row,
    as a heap walk: a heap of (closeness, i, j) holds each receiver's best
    unused partner j > i; when j is taken, i walks on to its next
    partner, outward from the split.  ``right``, ``left``, ``run_lo``
    and ``run_hi`` are each receiver's split, first partner below the
    split and run bounds, from ``_above``, and the lists are updated in
    place.  Returns the pairs (i, j) in pick order.  Time is
    O(n log n) in the usual case and memory O(n)."""
    n = len(v)
    half = n // 2
    heapq.heapify(heap)
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
                return pairs
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


def pairs_c(rows, seeds) -> list[np.ndarray]:
    """Strategy C's core: a uniformly random perfect matching of each
    row, reproducible per seed."""
    return [np.random.default_rng(s).permutation(len(v)).reshape(-1, 2)
            for v, s in zip(rows, seeds)]


def pairs_d(rows, seeds) -> list[np.ndarray]:
    """Strategy D's core: pair the receivers with the closest SNRs
    (sorted-adjacent); attains the minimum average SNR difference."""
    return [np.arange(len(v)).reshape(-1, 2) for v in rows]


STRATEGIES = {
    "A": pairs_a,
    "B": pairs_b,
    "C": pairs_c,
    "D": pairs_d,
}


def pair_positions(strategy: str, rows, seeds) -> list[np.ndarray]:
    """Pair each of the sorted SNR rows ``rows`` (each checked by
    ``check_snrs``) with strategy A-D, looked up in ``STRATEGIES`` at
    each call; only the random strategy C draws, row r from ``seeds[r]``.

    Returns, per row, an (n/2, 2) array of positions into it, one row
    per pair, in the order the strategy picks them: the order in which
    ``PairingPlan`` adds up their differences.
    """
    fn = STRATEGIES.get(strategy)
    if fn is None:
        raise ParameterError(f"unknown strategy {strategy!r}")
    return fn(rows, seeds)


def run_strategy(strategy: str, snrs, seed=0) -> PairingPlan:
    """Pair ``snrs`` with strategy A-D, looked up in ``STRATEGIES`` at
    each call; only the random strategy C draws from ``seed``."""
    snrs = check_snrs(snrs)
    order = np.argsort(snrs, kind="stable")
    return PairingPlan.from_pairs(snrs, order[pair_positions(strategy, [snrs[order]], [seed])[0]])

