"""Independent reference computations used to validate the package.

Everything here deliberately avoids the code paths under test: mutual
information uses Gauss-Hermite quadrature instead of Monte-Carlo, the
equal-rate point enumerates segment-diagonal intersections instead of
building a hull, matching optima come from a subset dynamic programme
checked against enumeration, and the Bessel function is integrated
numerically, also inside the location CDF, which runs its own
bisection.  ``best_single_rate`` reads the table entry by entry, and
the hierarchical 16-QAM and 8-PSK are extra MI-kernel inputs that the
threshold table cannot carry.  ``run_strategy_list`` (with
``strategy_b_allpairs``), ``strategy_b_heap``,
``stream_mutual_information_dense``, ``PairRateCacheScalar``,
``run_trial_scalar`` and ``bessel_j1_series`` are the exceptions:
they are the previous implementations of the pairing strategies (Python
lists, strategy B by sorting all pairs, then as a heap walk set up one
receiver at a time), of the Monte-Carlo stream MI (one masked
log-sum-exp per sum over a sample-major tensor), of the per-receiver
trial with its memoised pair rates (``rates.operating_points`` and
``rates.max_min_weighted`` per bucket pair) and of J1's power series
(all 39 terms), kept to pin the package's faster ones to the same plans
and values.
"""

from __future__ import annotations

import heapq
import itertools
import math
from bisect import bisect_left, bisect_right
from typing import NamedTuple

import numpy as np
from numpy.polynomial.hermite import hermgauss

from hmts.capacity import (
    DEFAULT_MI_QUALITY,
    _SNR_CEIL_DB,
    _SNR_FLOOR_DB,
    ThresholdTable,
    _stream_masks,
    best_entry,
)
from hmts.channel import BeamConfig
from hmts.constellation import Constellation
from hmts.errors import DegenerateRateError, ParameterError
from hmts.pairing import STRATEGIES, PairingPlan, strategy_a
from hmts.rates import hierarchical_gain, max_min_weighted, operating_points


def mi_quadrature(symbols, tx_labels, cond_labels, snr_db, order=48):
    """Mutual information (bit/symbol) between the message selected by
    ``tx_labels`` and the AWGN channel output, conditioned on the message
    classes of ``cond_labels`` being known at the receiver.

    ``tx_labels[i]`` is the message carried by symbol i; symbols sharing a
    ``cond_labels`` value form the known conditioning class (pass a
    constant to condition on nothing).  Gauss-Hermite quadrature over the
    complex noise makes this deterministic and independent of any
    Monte-Carlo sampling.
    """
    symbols = np.asarray(symbols, dtype=complex)
    m = len(symbols)
    n0 = 10.0 ** (-snr_db / 10.0)
    sigma = math.sqrt(n0 / 2.0)
    nodes, weights = hermgauss(order)
    # complex noise n = sigma*sqrt(2)*(t1 + i t2) with weight w1*w2/pi
    noise = sigma * math.sqrt(2.0) * (nodes[:, None] + 1j * nodes[None, :])
    wgrid = (weights[:, None] * weights[None, :]) / math.pi

    total = 0.0
    classes = {}
    for i in range(m):
        classes.setdefault(cond_labels[i], []).append(i)
    info_bits = None
    for i in range(m):
        cond = classes[cond_labels[i]]
        same_msg = [j for j in cond if tx_labels[j] == tx_labels[i]]
        n_msgs = len({tx_labels[j] for j in cond})
        if info_bits is None:
            info_bits = math.log2(n_msgs)
        y = symbols[i] + noise
        d2 = np.abs(y[:, :, None] - symbols[np.asarray(cond)][None, None, :]) ** 2
        logw = -d2 / n0
        hi = logw.max(axis=2, keepdims=True)
        lse_all = hi[:, :, 0] + np.log(np.exp(logw - hi).sum(axis=2))
        d2s = np.abs(y[:, :, None] - symbols[np.asarray(same_msg)][None, None, :]) ** 2
        logws = -d2s / n0
        his = logws.max(axis=2, keepdims=True)
        lse_same = his[:, :, 0] + np.log(np.exp(logws - his).sum(axis=2))
        total += float(np.sum(wgrid * (lse_all - lse_same))) / math.log(2.0)
    return info_bits - total / m


def stream_mi_quadrature(constellation, stream, snr_db, order=48):
    """Quadrature MI of a Constellation stream (same semantics as the
    package estimator: HE marginalises LE, LE conditions on HE)."""
    labels = constellation.labels
    if stream == "single":
        tx = labels
        cond = ("",) * len(labels)
    elif stream == "HE":
        tx = constellation.stream_labels("HE")
        cond = ("",) * len(labels)
    elif stream == "LE":
        tx = labels
        cond = constellation.stream_labels("HE")
    else:
        raise ValueError(stream)
    return mi_quadrature(constellation.symbols, tx, cond, snr_db, order=order)


def qpsk_mi(snr_db, order=48):
    """Single-stream QPSK mutual information via quadrature."""
    symbols = np.exp(1j * np.radians(np.array([45.0, 135.0, 225.0, 315.0])))
    labels = ("00", "01", "11", "10")
    return mi_quadrature(symbols, labels, ("",) * 4, snr_db, order=order)


_GRAY2 = ("00", "01", "11", "10")


def hierarchical_16qam(alpha: float) -> Constellation:
    """Hierarchical 16-QAM, alpha = d_h/d_l: an HE QPSK with minimum
    distance 2*(d_h + d_l) plus an LE QPSK with minimum distance 2*d_l
    (alpha = 0 superposes two equal-energy QPSKs)."""
    signs = [(+1, +1), (-1, +1), (-1, -1), (+1, -1)]  # Gray order
    symbols = []
    labels = []
    for q, (hi, hq) in enumerate(signs):
        he = complex(hi * (alpha + 1.0), hq * (alpha + 1.0))
        for p, (li, lq) in enumerate(signs):
            symbols.append(he + complex(li, lq))
            labels.append(_GRAY2[q] + _GRAY2[p])
    arr = np.array(symbols)
    arr = arr / math.sqrt(float(np.mean(np.abs(arr) ** 2)))
    return Constellation(
        name=f"H16QAM(alpha={alpha:g})", symbols=arr, labels=tuple(labels),
        he_bits=(0, 1), le_bits=(2, 3),
    )


def hierarchical_8psk(theta_deg: float) -> Constellation:
    """Hierarchical 8-PSK: one LE bit offsets each QPSK point by
    +/- theta along the unit circle, so the LE stream carries 1 bit."""
    symbols = []
    labels = []
    t = math.radians(theta_deg)
    for q, center in enumerate((45.0, 135.0, 225.0, 315.0)):
        c = math.radians(center)
        symbols.extend([np.exp(1j * (c - t)), np.exp(1j * (c + t))])
        labels.extend([_GRAY2[q] + "0", _GRAY2[q] + "1"])
    return Constellation(
        name=f"H8PSK(theta={theta_deg:g})", symbols=np.array(symbols),
        labels=tuple(labels), he_bits=(0, 1), le_bits=(2,),
    )


def invert_mi_grid(mi_fn, target, lo=-10.0, hi=30.0, step=0.01):
    """Fine-grid inversion: smallest SNR on the grid with MI >= target."""
    snr = lo
    while snr <= hi:
        if mi_fn(snr) >= target:
            return snr
        snr += step
    raise ValueError(f"target {target} not reached below {hi} dB")


def max_min_rate_exhaustive(points):
    """max over time-sharing mixtures of two operating points of
    min(r1, r2), by enumerating segment-diagonal intersections."""
    pts = [(0.0, 0.0)]
    for p in points:
        x = p[0] if isinstance(p, tuple) else p.r1
        y = p[1] if isinstance(p, tuple) else p.r2
        pts.extend([(x, y), (x, 0.0), (0.0, y)])
    best = max(min(x, y) for x, y in pts)
    for (x1, y1), (x2, y2) in itertools.combinations(pts, 2):
        denom = (x2 - x1) - (y2 - y1)
        if denom == 0.0:
            continue
        t = (y1 - x1) / denom
        if 0.0 <= t <= 1.0:
            best = max(best, x1 + t * (x2 - x1))
    return best


def ts_common_rate_search(rates, weights, rel_tol=1e-9):
    """Largest feasible common per-receiver rate by refining a rate grid.

    Feasible means sum_i r * w_i / R_i <= 1.  Each round evaluates the
    whole 1001-point grid at once in numpy: receiver i's load
    ``r * w_i / R_i`` is formed for every grid point, and the loads are
    added left to right, receiver by receiver, as a scalar ``sum`` would.
    The sum never runs over the factored closed form ``r * sum(w_i / R_i)``,
    so the search stays independent of the harmonic expression it checks
    and returns exactly what ``_ts_common_rate_search_scalar`` returns.
    """
    lo = 0.0
    hi = min(r / w for r, w in zip(rates, weights))
    rates = np.asarray(rates, dtype=float)
    weights = np.asarray(weights, dtype=float)

    for _ in range(6):
        grid = np.linspace(lo, hi, 1001)
        total = 0.0
        for rate, w in zip(rates, weights):
            total = total + grid * w / rate
        best = grid[np.flatnonzero(total <= 1.0)[-1]]
        span = (hi - lo) / 1000.0
        lo, hi = best, min(best + span, hi)
        if span <= rel_tol * max(best, 1e-300):
            break
    return best


def _ts_common_rate_search_scalar(rates, weights, rel_tol=1e-9):
    """Point-by-point reference for ``ts_common_rate_search``.

    The same grid refinement with the feasibility sum evaluated in pure
    Python, one grid point at a time.  Kept to check the numpy version.
    """
    lo = 0.0
    hi = min(r / w for r, w in zip(rates, weights))

    def feasible(r):
        return sum(r * w / rate for rate, w in zip(rates, weights)) <= 1.0

    for _ in range(6):
        grid = np.linspace(lo, hi, 1001)
        ok = [r for r in grid if feasible(r)]
        best = ok[-1]
        span = (hi - lo) / 1000.0
        lo, hi = best, min(best + span, hi)
        if span <= rel_tol * max(best, 1e-300):
            break
    return best


def two_rate_ts_grid(r1, r2, n=200001):
    """Grid search of max over t in [0,1] of min(t*r1, (1-t)*r2)."""
    t = np.linspace(0.0, 1.0, n)
    return float(np.max(np.minimum(t * r1, (1.0 - t) * r2)))


def all_matchings(n):
    """Every perfect matching of range(n), via permutation dedup."""
    seen = set()
    for perm in itertools.permutations(range(n)):
        pairs = frozenset(
            frozenset((perm[2 * k], perm[2 * k + 1])) for k in range(n // 2)
        )
        seen.add(pairs)
    return [
        tuple(tuple(sorted(p)) for p in sorted(m, key=sorted)) for m in seen
    ]


def matching_delta(snrs, pairs):
    return sum(abs(snrs[i] - snrs[j]) for i, j in pairs) / len(pairs)


_BRUTE_FORCE_CAP = 12


class Matching(NamedTuple):
    """A perfect matching, its pairs sorted, and its average SNR difference."""

    pairs: tuple[tuple[int, int], ...]
    delta_avg: float


def _matching(snrs, pairs) -> Matching:
    pairs = tuple(sorted(tuple(sorted(p)) for p in pairs))
    delta = sum(abs(snrs[i] - snrs[j]) for i, j in pairs) / len(pairs)
    return Matching(pairs, delta)


def _check_matching_input(snrs, objective) -> tuple[list[float], float]:
    snrs = [float(s) for s in snrs]
    if len(snrs) < 2 or len(snrs) % 2 or not all(math.isfinite(s) for s in snrs):
        raise ParameterError(f"need an even count >= 2 of finite SNRs, got {snrs}")
    if len(snrs) > _BRUTE_FORCE_CAP:
        raise ParameterError(
            f"brute force is limited to {_BRUTE_FORCE_CAP} receivers, got {len(snrs)}"
        )
    if objective not in ("max", "min"):
        raise ParameterError(f"objective must be 'max' or 'min', got {objective!r}")
    return snrs, 1.0 if objective == "max" else -1.0


def brute_force_matching(snrs, objective: str = "max") -> Matching:
    """Exact optimum of the average SNR difference over all perfect
    matchings, by dynamic programming over the set of matched receivers
    (the lowest unmatched one is paired next): O(2^n n) time, limited to
    12 receivers."""
    snrs, sign = _check_matching_input(snrs, objective)
    n = len(snrs)
    full = (1 << n) - 1
    score = [None] * (full + 1)  # best signed difference sum matching the set
    step = [None] * (full + 1)  # (previous set, i, j) attaining it
    score[0] = 0.0
    for mask in range(full):
        if score[mask] is None:
            continue
        i = (~mask & (mask + 1)).bit_length() - 1
        for j in range(i + 1, n):
            if mask >> j & 1:
                continue
            nxt = mask | 1 << i | 1 << j
            total = score[mask] + sign * abs(snrs[i] - snrs[j])
            if score[nxt] is None or total > score[nxt]:
                score[nxt] = total
                step[nxt] = (mask, i, j)
    pairs = []
    mask = full
    while mask:
        mask, i, j = step[mask]
        pairs.append((i, j))
    return _matching(snrs, pairs)


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


def brute_force_matching_enumerated(snrs, objective: str = "max") -> Matching:
    """``brute_force_matching`` by enumerating every perfect matching;
    kept to check the dynamic programme at up to 10 receivers."""
    snrs, sign = _check_matching_input(snrs, objective)
    best = None
    best_score = -math.inf
    for pairs in _matchings(tuple(range(len(snrs)))):
        score = sign * sum(abs(snrs[i] - snrs[j]) for i, j in pairs)
        if score > best_score:
            best_score = score
            best = pairs
    return _matching(snrs, best)


def bessel_j1_simpson(x, n=40001):
    """J1 via Simpson quadrature of its integral representation."""
    tau = np.linspace(0.0, math.pi, n)
    integrand = np.cos(tau - x * np.sin(tau))
    h = tau[1] - tau[0]
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(h / 3.0 * np.sum(weights * integrand) / math.pi)


def bessel_j1_series(x):
    """J1 on |x| <= 12 by its power series, all 39 terms added: the
    previous series of ``hmts.channel.bessel_j1``, which now stops once
    no later term can change the sum."""
    half = 0.5 * np.asarray(x, dtype=float)
    term = half.copy()
    acc = term.copy()
    h2 = half * half
    for k in range(1, 40):
        term = -term * h2 / (k * (k + 1))
        acc += term
    return acc


def location_attenuation_cdf(attenuation_db: float, cfg: BeamConfig) -> float:
    """P(location attenuation <= a) for a uniformly populated beam disk:
    the squared ratio of the flat-Earth ground radii at which the pattern
    loses ``a`` and the edge attenuation.  A radius is altitude *
    tan(angle), so the ratio is that of the tangents.

    The pattern 2*J1(u)/u, u = pi * D * sin(angle) / wavelength, is
    bisected in u below the first null of J1, with ``bessel_j1_simpson``
    on 129 nodes: the integrand is smooth, periodic and even about pi,
    so that is already exact to about 1e-15 here.
    """
    a = float(attenuation_db)
    if not 0.0 <= a <= cfg.edge_attenuation_db:
        raise ParameterError(
            f"attenuation must lie in [0, {cfg.edge_attenuation_db}], got {a}"
        )
    if a == 0.0:
        return 0.0

    def u_at(loss_db):
        lo, hi = 0.0, 3.8317  # J1's first zero is 3.83171
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            ratio = 2.0 * bessel_j1_simpson(mid, n=129) / mid
            if ratio > 0.0 and -20.0 * math.log10(ratio) < loss_db:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    sin_per_u = 299_792_458.0 / cfg.frequency_hz / (math.pi * cfg.antenna_diameter_m)
    angle = math.asin(u_at(a) * sin_per_u)
    edge = math.asin(u_at(cfg.edge_attenuation_db) * sin_per_u)
    return (math.tan(angle) / math.tan(edge)) ** 2


def check_even_list(snrs) -> list[float]:
    """``hmts.pairing``'s input check, on Python lists."""
    snrs = [float(s) for s in snrs]
    if len(snrs) < 2 or len(snrs) % 2:
        raise ParameterError(f"pairing requires an even receiver count >= 2, got {len(snrs)}")
    bad = [i for i, s in enumerate(snrs) if not math.isfinite(s)]
    if bad:
        raise ParameterError(f"pairing requires finite SNRs; receivers {bad} are not")
    # every pair difference is at most the spread, and the sums behind the
    # plan's mean and variance at most n/2 times the spread and its square
    spread = max(snrs) - min(snrs)
    if not math.isfinite(spread * spread * (len(snrs) // 2)):
        raise ParameterError(
            f"pairing requires SNR differences whose mean and variance are "
            f"finite; the SNRs span {spread:g} dB"
        )
    return snrs


def sorted_order_list(snrs) -> list[int]:
    """Receiver indices in (SNR, index) order."""
    return sorted(range(len(snrs)), key=lambda i: (snrs[i], i))


def plan_from_pairs_list(snrs, pairs) -> PairingPlan:
    """``PairingPlan.from_pairs`` with builtin sums over Python lists."""
    diffs = [abs(snrs[i] - snrs[j]) for i, j in pairs]
    n = len(diffs)
    avg = sum(diffs) / n
    var = sum((d - avg) ** 2 for d in diffs) / n
    return PairingPlan(
        pairs=tuple(sorted(tuple(sorted(p)) for p in pairs)),
        delta_avg=avg,
        delta_variance=var,
    )


def strategy_a_list(snrs) -> PairingPlan:
    snrs = check_even_list(snrs)
    order = sorted_order_list(snrs)
    n = len(order)
    pairs = [(order[k], order[n - 1 - k]) for k in range(n // 2)]
    return plan_from_pairs_list(snrs, pairs)


def strategy_b_allpairs(snrs) -> PairingPlan:
    """Strategy B by sorting all n(n-1)/2 candidate pairs: the reference
    for ``hmts.pairing.strategy_b``, which must return the same plan."""
    snrs = check_even_list(snrs)
    target = strategy_a_list(snrs).delta_avg
    order = sorted_order_list(snrs)
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
    return plan_from_pairs_list(snrs, pairs)


def strategy_b_heap(snrs) -> PairingPlan:
    """Strategy B as a lazy-heap greedy set up one receiver at a time,
    with a scalar ``bisect_left`` for each receiver's first partner and
    first run: the reference for ``hmts.pairing.strategy_b``, which
    must return the same plan and is checked against it at sizes too
    large for ``strategy_b_allpairs``."""
    snrs = np.array(check_even_list(snrs))
    target = strategy_a(snrs).delta_avg
    order = np.argsort(snrs, kind="stable")
    v = snrs[order].tolist()
    n = len(v)

    # path-compressed "next unused" pointers: up[k] leads to the smallest
    # unused index >= k (n is a sentinel), down[k + 1] to the largest
    # unused index <= k (-1 is a sentinel)
    up = list(range(n + 1))
    down = list(range(n + 1))

    def first_unused_from(k):
        while up[k] != k:
            up[k] = up[up[k]]
            k = up[k]
        return k

    def last_unused_to(k):
        k += 1
        while down[k] != k:
            down[k] = down[down[k]]
            k = down[k]
        return k - 1

    # partners j >= right[i] lie at or above the target and come out in
    # ascending j; below it, closeness grows as j falls, and a run of
    # equal closeness [run_lo[i], run_hi[i]] comes out in ascending j
    # from left[i].  Both searches bisect on the computed difference
    # v[j] - v[i] (and gap), never on v[i] + target, which rounds
    # differently; runs are of equal gap, since distinct differences can
    # round to one gap
    right = [0] * n
    left = [0] * n
    run_lo = [0] * n
    run_hi = [0] * n
    for i in range(n):
        vi = v[i]
        split = bisect_left(v, target, i + 1, n, key=lambda x: x - vi)
        right[i] = left[i] = run_lo[i] = split
        run_hi[i] = split - 1

    def best_partner(i):
        """(closeness, i, j) for i's best unused partner j > i, or None."""
        vi = v[i]
        j = left[i] = first_unused_from(left[i])
        if j > run_hi[i]:
            k = last_unused_to(run_lo[i] - 1)
            if k > i:
                gap = (v[k] - vi) - target
                lo = bisect_left(v, gap, i + 1, k, key=lambda x: (x - vi) - target)
                run_lo[i], run_hi[i] = lo, k
                j = left[i] = first_unused_from(lo)
            else:
                run_lo[i], run_hi[i] = i + 1, i
                j = None
        c_left = None if j is None else abs(abs(vi - v[j]) - target)
        r = right[i] = first_unused_from(right[i])
        if r < n:
            c_right = abs(abs(vi - v[r]) - target)
            if j is None or c_right < c_left:  # a tie goes to the smaller j
                return (c_right, i, r)
        return None if j is None else (c_left, i, j)

    heap = [entry for entry in map(best_partner, range(n)) if entry is not None]
    heapq.heapify(heap)
    pairs = []
    while len(pairs) < n // 2:
        _, a, b = heap[0]
        if up[a] != a:
            heapq.heappop(heap)
        elif up[b] != b:
            entry = best_partner(a)
            if entry is None:
                heapq.heappop(heap)
            else:
                heapq.heapreplace(heap, entry)
        else:
            heapq.heappop(heap)
            for k in (a, b):
                up[k] = k + 1
                down[k + 1] = k
            pairs.append((a, b))
    return PairingPlan.from_pairs(snrs, order[np.array(pairs)])


def strategy_c_list(snrs, seed=0) -> PairingPlan:
    snrs = check_even_list(snrs)
    rng = np.random.default_rng(seed)
    order = sorted_order_list(snrs)
    perm = rng.permutation(len(order))
    shuffled = [order[k] for k in perm]
    pairs = [(shuffled[2 * k], shuffled[2 * k + 1]) for k in range(len(order) // 2)]
    return plan_from_pairs_list(snrs, pairs)


def strategy_d_list(snrs) -> PairingPlan:
    snrs = check_even_list(snrs)
    order = sorted_order_list(snrs)
    pairs = [(order[2 * k], order[2 * k + 1]) for k in range(len(order) // 2)]
    return plan_from_pairs_list(snrs, pairs)


def run_strategy_list(strategy: str, snrs, seed=0) -> PairingPlan:
    """Strategies A-D on Python lists, one receiver and one pair at a
    time: the reference for ``hmts.pairing.run_strategy``."""
    if strategy == "C":
        return strategy_c_list(snrs, seed)
    return {"A": strategy_a_list, "B": strategy_b_allpairs, "D": strategy_d_list}[strategy](snrs)


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    hi = np.max(a, axis=axis, keepdims=True)
    out = hi.squeeze(axis) + np.log(np.sum(np.exp(a - hi), axis=axis))
    return out


def stream_mutual_information_dense(
    c: Constellation,
    stream: str,
    snr_db: float,
    quality: int = DEFAULT_MI_QUALITY,
    seed: int = 0,
) -> float:
    """Monte-Carlo mutual information of one stream over AWGN, bit/symbol.

    ``quality`` is the total number of (symbol, noise) samples; the result
    is reproducible for a fixed seed.
    """
    if not _SNR_FLOOR_DB <= snr_db <= _SNR_CEIL_DB:
        raise ParameterError(f"snr_db must lie in [{_SNR_FLOOR_DB}, {_SNR_CEIL_DB}]")
    if quality < 1000:
        raise ParameterError(f"quality must be >= 1000, got {quality}")
    universe, same = _stream_masks(c, stream)
    syms = c.symbols
    m = len(syms)
    n0 = 10.0 ** (-snr_db / 10.0)  # unit symbol energy
    rng = np.random.default_rng(seed)
    per = -(-quality // m)  # ceil
    noise = math.sqrt(n0 / 2.0) * (
        rng.standard_normal((m, per)) + 1j * rng.standard_normal((m, per))
    )
    y = syms[:, None] + noise
    log_w = -np.abs(y[:, :, None] - syms[None, None, :]) ** 2 / n0
    neg_inf = -np.inf
    lw_universe = np.where(universe[:, None, :], log_w, neg_inf)
    lw_class = np.where(same[:, None, :], log_w, neg_inf)
    lse_u = _logsumexp(lw_universe, axis=2)
    lse_c = _logsumexp(lw_class, axis=2)
    u_sizes = universe.sum(axis=1)
    c_sizes = same.sum(axis=1)
    if len(set(u_sizes)) != 1 or len(set(c_sizes)) != 1:
        raise ParameterError(
            f"{c.name}: stream classes are not uniform; cannot form stream MI"
        )
    n_classes = u_sizes[0] / c_sizes[0]
    info = math.log2(n_classes) - float(np.mean(lse_u - lse_c)) / math.log(2.0)
    return info


def best_single_rate(table: ThresholdTable, snr_db: float) -> float:
    """Highest single-stream spectral efficiency decodable at ``snr_db``."""
    best = best_entry(table.singles(), snr_db)
    return best.spectral_efficiency if best else 0.0


class PairRateCacheScalar:
    """Memoised per-pair and per-receiver rate lookups for one table: the
    reference for ``hmts.sim.PairRateCache``, one scalar at a time.

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


def run_trial_scalar(snr_db, weight, strategy: str, table, seed=0):
    """One trial over lists of SNRs and weights, one receiver at a time:
    the reference for ``hmts.sim.run_trial``, with the same return value."""
    if strategy not in STRATEGIES:
        raise ParameterError(f"unknown strategy {strategy!r}")
    snr_db, weight = [float(s) for s in snr_db], list(weight)
    cache = table if isinstance(table, PairRateCacheScalar) else PairRateCacheScalar(table)
    rates = [cache.best_single_rate(s) for s in snr_db]
    excluded = tuple(i for i, rate in enumerate(rates) if rate <= 0)
    active = [i for i in range(len(snr_db)) if rates[i] > 0]
    if not active:
        raise DegenerateRateError(
            "no receiver can decode any modcod", receivers=excluded
        )

    inv_classical = 0.0
    for i in active:
        inv_classical += weight[i] / rates[i]
    classical = 1.0 / inv_classical

    pool = sorted(active, key=lambda i: (snr_db[i], i))
    solo = None
    if len(pool) % 2:
        solo = pool.pop(len(pool) // 2)  # keep the middle receiver single
    inv_hier = 0.0
    if solo is not None:
        inv_hier += weight[solo] / rates[solo]
    if pool:
        snrs = [snr_db[i] for i in pool]
        for a, b in run_strategy_list(strategy, snrs, seed).pairs:
            i, j = pool[a], pool[b]
            inv_hier += 1.0 / cache.pair_rate(snr_db[i], snr_db[j], weight[i], weight[j])
    hier = 1.0 / inv_hier
    return classical, hier, hierarchical_gain(hier, classical), excluded
