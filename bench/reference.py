"""Reference computations for the benchmark's output checks.

Nothing here imports ``hmts`` or the repository's test oracles, so an
edit to the package or to its test suite cannot change what the
benchmark accepts.  Each fact is recomputed the plain way:

- decodability is a linear scan of the threshold CSV, with no SNR
  buckets and no caches;
- a pair's equal rate is the best point of every segment between two
  operating points (origin and axis projections included), found by
  enumerating segment-diagonal intersections rather than building a
  hull;
- stream mutual information uses Gauss-Hermite quadrature over the
  complex noise instead of Monte-Carlo sampling, on a 16-APSK built
  here from its ring ratio and half angle.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.hermite import hermgauss

# bits per symbol of each single-stream modulation; each hierarchical
# stream (HE or LE) of a 16-APSK carries 2 bits
_SINGLE_BITS = {"QPSK": 2, "8PSK": 3, "16APSK": 4}
_STREAM_BITS = 2


@dataclass(frozen=True)
class Row:
    modulation: str
    code_rate: Fraction
    stream: str
    threshold_db: float

    @property
    def efficiency(self) -> float:
        bits = _SINGLE_BITS[self.modulation] if self.stream == "single" else _STREAM_BITS
        return bits * float(self.code_rate)


def read_csv_rows(path) -> list[list[str]]:
    """Data rows of a CSV file: blank and ``#`` lines dropped, header kept
    as the first row."""
    with open(path, newline="") as fh:
        return [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]


def read_threshold_rows(path) -> list[Row]:
    rows = read_csv_rows(path)
    if [c.strip() for c in rows[0]] != ["modulation", "code_rate", "stream", "threshold_db"]:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    return [Row(m.strip(), Fraction(r.strip()), s.strip(), float(t)) for m, r, s, t in rows[1:]]


class Table:
    """A threshold table read by plain scan, optionally restricted to a
    set of hierarchical energy fractions (as a scenario's ``rho_set``)."""

    def __init__(self, rows, rho_set=None):
        if rho_set is not None:
            keep = {f"H16APSK-{r:.2f}" for r in rho_set}
            rows = [r for r in rows if r.stream == "single" or r.modulation in keep]
        self.rows = list(rows)
        self.hier_modulations = sorted({r.modulation for r in self.rows if r.stream != "single"})
        self.thresholds = sorted({r.threshold_db for r in self.rows})

    def best(self, snr_db: float, stream: str = "single", modulation: str | None = None) -> float:
        """Highest efficiency decodable at ``snr_db`` (0.0 if none)."""
        best = 0.0
        for r in self.rows:
            if r.stream != stream or (modulation is not None and r.modulation != modulation):
                continue
            if r.threshold_db <= snr_db and r.efficiency > best:
                best = r.efficiency
        return best

    def pair_points(self, snr_lo: float, snr_hi: float) -> list[tuple[float, float]]:
        """Operating points (worse receiver's rate, better receiver's rate):
        each receiver alone, plus for each hierarchical modulation the best
        HE rate at the lower SNR with the best LE rate at the higher one."""
        points = [(self.best(snr_lo), 0.0), (0.0, self.best(snr_hi))]
        for mod in self.hier_modulations:
            he = self.best(snr_lo, "HE", mod)
            le = self.best(snr_hi, "LE", mod)
            if he > 0 and le > 0:
                points.append((he, le))
        return points

    def near_threshold(self, snr_db: float, margin_db: float) -> bool:
        return any(abs(snr_db - t) <= margin_db for t in self.thresholds)


def equal_rate(points, w1: float = 1.0, w2: float = 1.0) -> float:
    """max over time-sharing mixtures of the points (rates may be given
    up) of min(x / w1, y / w2), by enumerating every segment between two
    candidate points and its crossing of the diagonal."""
    cand = [(0.0, 0.0)]
    for x, y in points:
        x, y = x / w1, y / w2
        cand.extend([(x, y), (x, 0.0), (0.0, y)])
    p = np.array(cand)
    i, j = np.triu_indices(len(p), k=1)
    x1, y1, x2, y2 = p[i, 0], p[i, 1], p[j, 0], p[j, 1]
    best = float(np.max(np.minimum(p[:, 0], p[:, 1])))
    denom = (x2 - x1) - (y2 - y1)
    ok = denom != 0.0
    t = (y1[ok] - x1[ok]) / denom[ok]
    inside = (t >= 0.0) & (t <= 1.0)
    if inside.any():
        best = max(best, float(np.max(x1[ok][inside] + t[inside] * (x2[ok][inside] - x1[ok][inside]))))
    return best


def pair_rate(table: Table, snr_a: float, snr_b: float, w_a: int = 1, w_b: int = 1) -> float:
    """Equal per-receiver rate of one pair; the worse receiver takes HE."""
    if snr_a > snr_b:
        snr_a, snr_b, w_a, w_b = snr_b, snr_a, w_b, w_a
    return equal_rate(table.pair_points(snr_a, snr_b), w_a, w_b)


def classical_rate(table: Table, receivers) -> float:
    """Equal per-receiver rate of classical time sharing over the
    receivers, given as (snr_db, weight), that decode a single modcod."""
    single = [table.best(snr) for snr, _ in receivers]
    return 1.0 / math.fsum(w / r for (_, w), r in zip(receivers, single) if r > 0)


def hierarchical_rate(table: Table, receivers, strategy: str) -> float:
    """Equal per-receiver rate when the receivers are paired.

    Receivers that decode no single modcod are left out.  The rest are
    sorted by SNR; with an odd count the middle one is served alone.
    Strategy A pairs the k-th weakest with the k-th strongest, strategy D
    pairs sorted neighbours.
    """
    single = [table.best(snr) for snr, _ in receivers]
    pool = sorted((k for k, r in enumerate(single) if r > 0), key=lambda k: (receivers[k][0], k))
    inv = []
    if len(pool) % 2:
        solo = pool.pop(len(pool) // 2)
        inv.append(receivers[solo][1] / single[solo])
    n = len(pool)
    if strategy == "A":
        pairs = [(pool[k], pool[n - 1 - k]) for k in range(n // 2)]
    elif strategy == "D":
        pairs = [(pool[2 * k], pool[2 * k + 1]) for k in range(n // 2)]
    else:
        raise ValueError(f"no reference pairing for strategy {strategy!r}")
    for a, b in pairs:
        (sa, wa), (sb, wb) = receivers[a], receivers[b]
        inv.append(1.0 / pair_rate(table, sa, sb, wa, wb))
    return 1.0 / math.fsum(inv)


def matches_printed(value: float, printed: str, abs_tol: float = 0.0,
                    digits: int = 10, rel_slack: float = 1e-12) -> bool:
    """True when ``printed`` is ``value`` written to ``digits`` significant
    digits, or lies within ``abs_tol`` of it.  ``rel_slack`` admits the
    rounding on either side of a digit boundary when the two computations
    differ only in summation order."""
    fmt = f"{{:.{digits}g}}".format
    if printed in {fmt(value), fmt(value * (1 - rel_slack)), fmt(value * (1 + rel_slack))}:
        return True
    try:
        return abs(float(printed) - value) <= abs_tol
    except ValueError:
        return False


# -- hierarchical 16-APSK and its stream mutual information -------------

def apsk16(gamma: float, theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit-energy hierarchical 16-APSK and each symbol's quadrant.

    Per quadrant: one inner-ring point on the diagonal and three outer
    points (ring ratio ``gamma``) at the diagonal and +/- ``theta``.
    """
    pts, quadrant = [], []
    t = math.radians(theta_deg)
    for q in range(4):
        c = math.radians(45.0 + 90.0 * q)
        for radius, angle in ((1.0, c), (gamma, c - t), (gamma, c), (gamma, c + t)):
            pts.append(radius * complex(math.cos(angle), math.sin(angle)))
            quadrant.append(q)
    x = np.array(pts)
    return x / math.sqrt(float(np.mean(np.abs(x) ** 2))), np.array(quadrant)


def stream_mi(symbols, quadrant, stream: str, snr_db: float, order: int = 24) -> float:
    """Mutual information (bit/symbol) of the HE stream (the quadrant, LE
    bits unknown) or the LE stream (the point, quadrant known) over AWGN
    at ``snr_db`` (unit symbol energy), by Gauss-Hermite quadrature."""
    n0 = 10.0 ** (-snr_db / 10.0)
    t, w = hermgauss(order)
    noise = math.sqrt(n0) * (t[:, None] + 1j * t[None, :]).ravel()
    weight = (w[:, None] * w[None, :]).ravel() / math.pi
    same_q = quadrant[:, None] == quadrant[None, :]
    if stream == "HE":
        universe, same = np.ones_like(same_q), same_q
    elif stream == "LE":
        universe, same = same_q, np.eye(len(symbols), dtype=bool)
    else:
        raise ValueError(stream)
    y = symbols[:, None] + noise[None, :]  # (sent, node)
    logp = -np.abs(y[:, :, None] - symbols[None, None, :]) ** 2 / n0
    hi = logp.max(axis=2, keepdims=True)
    p = np.exp(logp - hi)
    ratio = (p * universe[:, None, :]).sum(axis=2) / (p * same[:, None, :]).sum(axis=2)
    return 2.0 - float(np.mean(np.log2(ratio) @ weight))


def mi_threshold(symbols, quadrant, stream: str, target: float, order: int = 24,
                 lo: float = -10.0, hi: float = 30.0, tol_db: float = 1e-3) -> float:
    """SNR (dB) at which the quadrature MI reaches ``target``, bisected."""
    if stream_mi(symbols, quadrant, stream, hi, order) < target:
        raise ValueError(f"{stream} MI never reaches {target} below {hi} dB")
    while hi - lo > tol_db:
        mid = 0.5 * (lo + hi)
        if stream_mi(symbols, quadrant, stream, mid, order) >= target:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
