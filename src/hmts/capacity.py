"""Decoding thresholds: DVB-S2 table ingestion and mutual-information
estimation for hierarchical streams.

Single-stream thresholds come from a data file with the standard DVB-S2
values.  Hierarchical (HE/LE) thresholds have no standard source, so they
are estimated here as the SNR at which the constrained mutual information
of the stream reaches the spectral efficiency of the code, plus a fixed
implementation-loss margin.  The HE stream is detected with the LE bits
unknown (treated as interference); the LE stream assumes the HE bits are
already decoded and acts on the points of one quadrant only.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources

import numpy as np

from ._csv import atomic_writer, read_rows
from .constellation import Apsk16Params, Constellation, build_16apsk, solution_set
from .errors import ParameterError, TableError, UnreachableThresholdError

__all__ = [
    "ModCod",
    "ThresholdTable",
    "DVBS2_CODE_RATES",
    "ADOPTED_APSK_GEOMETRY",
    "hierarchical_modulation_id",
    "hierarchical_constellation",
    "stream_mutual_information",
    "estimate_threshold",
    "estimate_hierarchical_thresholds",
    "select_pair",
    "load_thresholds",
    "save_thresholds",
    "default_table",
    "best_entry",
]

STREAMS = ("single", "HE", "LE")

_TABLE_HEADER = ("modulation", "code_rate", "stream", "threshold_db")

_SINGLE_BITS = {"QPSK": 2, "8PSK": 3, "16APSK": 4}

DVBS2_CODE_RATES = tuple(
    Fraction(*r)
    for r in [(1, 4), (1, 3), (2, 5), (1, 2), (3, 5), (2, 3), (3, 4), (4, 5), (5, 6), (8, 9), (9, 10)]
)

# Hierarchical 16-APSK geometries adopted for each HE energy fraction;
# the shipped HE/LE rows are estimate_hierarchical_thresholds at these
# geometries with seed 0.  They are not what select_pair returns with
# its defaults: at 0.80 it picks gamma 2.2, theta 29.03 deg.
ADOPTED_APSK_GEOMETRY = {
    0.75: Apsk16Params(gamma=2.8, theta_deg=31.5),
    0.80: Apsk16Params(gamma=2.3, theta_deg=28.4),
    0.85: Apsk16Params(gamma=1.9, theta_deg=25.1),
    0.90: Apsk16Params(gamma=1.6, theta_deg=20.9),
}

_HIER_PREFIX = "H16APSK-"

DEFAULT_MI_QUALITY = 20000
DEFAULT_LOSS_MARGIN_DB = 0.8
# an implementation loss beyond this is no longer a margin on the MI
# threshold; NaN and inf fail the range check too
_MAX_LOSS_MARGIN_DB = 10.0

_SNR_FLOOR_DB = -10.0
_SNR_CEIL_DB = 30.0

# sent symbols per block of the MI kernel: one block's weights, 4 x 16 x
# 1250 float64 (640 kB) for HE at the default quality, stay in cache from
# the exp to the matmul that reads them
_MI_BLOCK = 4


def hierarchical_modulation_id(rho_he: float) -> str:
    """Table identifier of the hierarchical 16-APSK at ``rho_he``.

    The id carries rho to two decimals, so a rho more than 1e-9 away from
    a multiple of 0.01 is rejected: rounded, it would name another
    configuration.
    """
    if not (math.isfinite(rho_he) and abs(rho_he - round(rho_he * 100) / 100) <= 1e-9):
        raise ParameterError(f"rho_he must be a multiple of 0.01, got {rho_he}")
    return f"{_HIER_PREFIX}{rho_he:.2f}"


def _parse_hier_rho(modulation: str) -> float | None:
    """rho of a hierarchical table id, or None unless ``modulation`` is
    the id ``hierarchical_modulation_id`` gives for it: another spelling
    of the same rho (``H16APSK-0.8``) would not match ``filter_rho``."""
    if not modulation.startswith(_HIER_PREFIX):
        return None
    try:
        rho = float(modulation[len(_HIER_PREFIX):])
        canonical = hierarchical_modulation_id(rho)
    except ValueError:  # ParameterError is one
        return None
    return rho if modulation == canonical else None


def hierarchical_constellation(modulation: str) -> Constellation:
    """Constellation of a hierarchical table id such as ``H16APSK-0.80``."""
    rho = _parse_hier_rho(modulation)
    if rho is None:
        raise ParameterError(f"not a hierarchical modulation id: {modulation!r}")
    try:
        params = ADOPTED_APSK_GEOMETRY[round(rho, 2)]
    except KeyError:
        raise ParameterError(
            f"no adopted geometry for rho_he={rho}; known: "
            f"{sorted(ADOPTED_APSK_GEOMETRY)}"
        ) from None
    return build_16apsk(params, name=modulation)


@dataclass(frozen=True)
class ModCod:
    """One (modulation, code rate, stream) with its decoding threshold."""

    modulation: str
    code_rate: Fraction
    stream: str  # single | HE | LE
    threshold_db: float

    def __post_init__(self):
        if self.stream not in STREAMS:
            raise TableError(f"unknown stream {self.stream!r}")
        if not math.isfinite(self.threshold_db):
            raise TableError(f"threshold must be finite, got {self.threshold_db}")
        if not 0 < self.code_rate <= 1:
            raise TableError(f"code rate must lie in (0, 1], got {self.code_rate}")
        hier = _parse_hier_rho(self.modulation) is not None
        if self.stream == "single":
            if self.modulation not in _SINGLE_BITS:
                raise TableError(
                    f"unknown single-stream modulation {self.modulation!r}"
                )
        elif not hier:
            raise TableError(
                f"stream {self.stream} requires a hierarchical modulation id "
                f"such as {hierarchical_modulation_id(0.8)!r}, got {self.modulation!r}"
            )

    @property
    def bits_per_stream(self) -> int:
        if self.stream == "single":
            return _SINGLE_BITS[self.modulation]
        return 2

    @cached_property
    def spectral_efficiency(self) -> float:
        """Useful bits per symbol: stream bits times code rate; computed
        on first use and kept, outside the fields that equality and hash
        read."""
        return self.bits_per_stream * float(self.code_rate)

    @property
    def provenance(self) -> str:
        return "standard-ingested" if self.stream == "single" else "mi-estimated"


class ThresholdTable:
    """Immutable collection of ModCod entries with validity checks."""

    def __init__(self, entries):
        self.entries = tuple(entries)
        if not self.entries:
            raise TableError("threshold table is empty")
        seen = set()
        # entries per (modulation, stream), each group in table order:
        # best_entry lets the first in order win a tie
        groups: dict[tuple[str, str], list[ModCod]] = {}
        for e in self.entries:
            key = (e.modulation, e.code_rate, e.stream)
            if key in seen:
                raise TableError(f"duplicate entry {key}")
            seen.add(key)
            groups.setdefault((e.modulation, e.stream), []).append(e)
        self._groups = {key: tuple(grp) for key, grp in groups.items()}
        self._singles = tuple(e for e in self.entries if e.stream == "single")
        self._hierarchical = tuple(sorted({m for m, s in self._groups if s != "single"}))
        self._check_monotone()

    def _check_monotone(self):
        for (mod, stream), grp in self._groups.items():
            grp = sorted(grp, key=lambda e: e.code_rate)
            for lo, hi in zip(grp, grp[1:]):
                if hi.threshold_db <= lo.threshold_db:
                    raise TableError(
                        f"threshold must increase with code rate for {mod}/{stream}: "
                        f"{lo.code_rate} -> {lo.threshold_db} dB but "
                        f"{hi.code_rate} -> {hi.threshold_db} dB"
                    )

    def singles(self) -> tuple[ModCod, ...]:
        return self._singles

    def hierarchical_modulations(self) -> tuple[str, ...]:
        return self._hierarchical

    def entries_for(self, modulation: str, stream: str) -> tuple[ModCod, ...]:
        return self._groups.get((modulation, stream), ())

    def filter_rho(self, rho_set) -> "ThresholdTable":
        """Table restricted to single entries plus the given rho values."""
        keep_ids = {hierarchical_modulation_id(r) for r in rho_set}
        entries = [
            e for e in self.entries
            if e.stream == "single" or e.modulation in keep_ids
        ]
        return ThresholdTable(entries)


def load_thresholds(path: str | os.PathLike) -> ThresholdTable:
    """Read a ``modulation,code_rate,stream,threshold_db`` CSV file.

    Lines starting with ``#`` are ignored.  Parse failures report the
    offending line number.
    """
    entries = []
    for lineno, row in read_rows(path, _TABLE_HEADER, TableError):
        if len(row) != 4:
            raise TableError(f"{path}: line {lineno}: expected 4 fields, got {len(row)}")
        mod, rate_s, stream, th_s = (c.strip() for c in row)
        try:
            rate = Fraction(rate_s)
        except (ValueError, ZeroDivisionError):
            raise TableError(f"{path}: line {lineno}: bad code rate {rate_s!r}") from None
        try:
            threshold = float(th_s)
        except ValueError:
            raise TableError(f"{path}: line {lineno}: bad threshold {th_s!r}") from None
        try:
            entries.append(ModCod(mod, rate, stream, threshold))
        except TableError as exc:
            raise TableError(f"{path}: line {lineno}: {exc}") from None
    if not entries:
        raise TableError(f"{path}: no threshold entries found")
    return ThresholdTable(entries)


def save_thresholds(table: ThresholdTable, path: str | os.PathLike) -> None:
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(_TABLE_HEADER)
        for e in table.entries:
            writer.writerow(
                [e.modulation, str(e.code_rate), e.stream, f"{e.threshold_db:.2f}"]
            )


def default_table() -> ThresholdTable:
    """The table shipped with the package (DVB-S2 singles plus estimated
    hierarchical entries for rho_he in {0.75, 0.80, 0.85, 0.90})."""
    ref = resources.files("hmts.data").joinpath("dvbs2_thresholds.csv")
    with resources.as_file(ref) as path:
        return load_thresholds(path)


def best_entry(entries, snr_db: float) -> ModCod | None:
    """Highest-efficiency entry decodable at ``snr_db``; the first in
    order wins a tie, and ``None`` means nothing is decodable."""
    best = None
    for e in entries:
        if e.threshold_db <= snr_db and (
            best is None or e.spectral_efficiency > best.spectral_efficiency
        ):
            best = e
    return best


def _stream_masks(c: Constellation, stream: str):
    """(universe, same_class) boolean masks over symbol pairs.

    ``universe[i, j]``: candidate j is hypothetically possible when i was
    sent; ``same_class[i, j]``: candidate j carries the same stream message
    as i.  HE marginalises over LE bits; LE conditions on the HE bits.
    """
    m = len(c.labels)
    if stream == "single":
        universe = np.ones((m, m), dtype=bool)
        same = np.eye(m, dtype=bool)
        return universe, same
    if stream in ("HE", "LE") and not c.is_hierarchical:
        raise ParameterError(f"{c.name} carries no {stream} stream")
    he = np.array(c.stream_labels("HE"))
    same_he = he[:, None] == he[None, :]
    if stream == "HE":
        return np.ones((m, m), dtype=bool), same_he
    if stream == "LE":
        return same_he, np.eye(m, dtype=bool)
    raise ParameterError(f"unknown stream {stream!r}")


class _Curve:
    """The SNR-free part of one MI curve (constellation, stream, quality,
    seed), built on the first evaluation, and the MI by grid index that
    ``estimate_threshold`` has evaluated on it.

    With ``y = s_i + scale * z`` and ``d_ij = s_i - s_j``, the log-weight
    of candidate j relative to the sent symbol i is
    ``-(|d_ij|^2 + scale * 2 Re(d_ij conj z_ik)) / n0``; the two terms
    ``A = |d|^2`` and ``B = 2 Re(d conj z)`` do not depend on the SNR.
    Candidates j run over the stream's universe row of i only.  An
    evaluation works through the sent symbols in blocks of
    ``_MI_BLOCK``, in place in one block buffer, so it allocates no
    array of ``B``'s size.
    """

    def __init__(self, c: Constellation, stream: str, quality: int, seed: int):
        self._args = (c, stream, quality, seed)
        self.memo: dict[int, float] = {}

    @cached_property
    def terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """``A`` (i, j), ``B`` (i, j, k), the (universe, class) masks
        (i, sum, j) and log2 of the number of stream messages."""
        c, stream, quality, seed = self._args
        universe, same = _stream_masks(c, stream)
        u_sizes = universe.sum(axis=1)
        c_sizes = same.sum(axis=1)
        if len(set(u_sizes)) != 1 or len(set(c_sizes)) != 1:
            raise ParameterError(
                f"{c.name}: stream classes are not uniform; cannot form stream MI"
            )
        syms = c.symbols
        m = len(syms)
        per = -(-quality // m)  # ceil
        rng = np.random.default_rng(seed)
        z_re = rng.standard_normal((m, per))
        z_im = rng.standard_normal((m, per))
        # candidate indices of each sent symbol, in symbol order
        cand = np.nonzero(universe)[1].reshape(m, u_sizes[0])
        d = syms[:, None] - syms[cand]
        a = d.real * d.real + d.imag * d.imag
        b = d.real[:, :, None] * z_re[:, None, :]
        b += d.imag[:, :, None] * z_im[:, None, :]
        b *= 2.0
        masks = np.stack(
            (np.ones(cand.shape), np.take_along_axis(same, cand, axis=1)), axis=1
        ).astype(float)
        return a, b, masks, math.log2(u_sizes[0] / c_sizes[0])

    def mutual_information(self, snr_db: float) -> float:
        a, b, masks, log2_classes = self.terms
        m, n_cand, per = b.shape
        n0 = 10.0 ** (-snr_db / 10.0)  # unit symbol energy
        scale = -math.sqrt(n0 / 2.0) / n0
        a_n0 = (a / n0)[:, :, None]
        # the sent symbol's term is exactly exp(0) = 1 and lies in both
        # sums, so neither underflows; every other exponent is
        # (scale^2 |z|^2 - |y - s_j|^2) / n0 <= |z|^2 / 2, so none
        # overflows and no max shift is needed.  Each block runs the
        # elementwise steps and the per-symbol matmul of the whole array
        # on its own rows, so the sums keep their bits.
        w_buf = np.empty((min(_MI_BLOCK, m), n_cand, per))  # (block, j, k)
        sums = np.empty((m, 2, per))  # (i, sum, k)
        for i in range(0, m, _MI_BLOCK):
            rows = slice(i, i + _MI_BLOCK)
            w = w_buf[: len(b[rows])]
            np.multiply(b[rows], scale, out=w)
            np.subtract(w, a_n0[rows], out=w)
            np.exp(w, out=w)
            np.matmul(masks[rows], w, out=sums[rows])
        ratio = sums[:, 0] / sums[:, 1]
        return log2_classes - float(np.mean(np.log(ratio))) / math.log(2.0)


# The one curve evaluated last, keyed by the values that fix it: the
# threshold search of each code rate starts from the MI that the rates
# before it evaluated on the same curve, and every evaluation shares the
# curve's SNR-free terms.  A caller keeps the curve it was handed, so a
# thread on another curve starts a new one and never mixes two.
_last_curve: tuple = (None, None)


def _curve(c: Constellation, stream: str, quality: int, seed: int) -> _Curve:
    global _last_curve
    key = (c.symbols.tobytes(), c.labels, c.he_bits, c.le_bits, stream, quality, seed)
    last_key, curve = _last_curve
    if key != last_key:
        curve = _Curve(c, stream, quality, seed)
        _last_curve = (key, curve)
    return curve


def stream_mutual_information(
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
    if isinstance(quality, bool) or not isinstance(quality, (int, np.integer)) or quality < 1000:
        raise ParameterError(f"quality must be an integer >= 1000, got {quality!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be an integer >= 0, got {seed!r}")
    return _curve(c, stream, quality, seed).mutual_information(snr_db)


def _inverse_interpolation(points, target: float) -> float:
    """Grid index at which the polynomial through ``points`` (index, MI),
    as index against MI, takes ``target``; NaN when two MIs are equal."""
    index = 0.0
    for i, (k_i, v_i) in enumerate(points):
        term = k_i
        for j, (_, v_j) in enumerate(points):
            if j != i:
                if v_j == v_i:
                    return math.nan
                term *= (target - v_j) / (v_i - v_j)
        index += term
    return index


def _code_rate(code_rate: Fraction | float) -> float:
    try:
        rate = float(Fraction(code_rate))
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParameterError(f"bad code rate {code_rate!r}") from None
    if not 0 < rate <= 1:
        raise ParameterError(f"code rate must lie in (0, 1], got {code_rate}")
    return rate


def estimate_threshold(
    c: Constellation,
    stream: str,
    code_rate: Fraction | float,
    quality: int = DEFAULT_MI_QUALITY,
    loss_margin_db: float = DEFAULT_LOSS_MARGIN_DB,
    seed: int = 0,
) -> float:
    """Decoding threshold (dB): smallest SNR at which the stream mutual
    information reaches ``stream bits * code_rate``, to 0.01 dB, plus the
    implementation-loss margin, which must lie in [0, 10] dB.

    The SNRs searched are those bisecting [-10, 30] dB to 0.01 dB can
    visit, -10 + 40 k / 2**12 dB for k in 0..2**12, and the MI is taken
    not to decrease with SNR.  The bracket is the highest evaluated k
    whose MI is below the target (-1 if none) and the next evaluated k.
    Each probe interpolates k inversely through the four evaluated points
    nearest the target, falling back to linear interpolation in the
    bracket, and is moved toward the bracket's middle as far as needed
    for the evaluations left to halve it down to one cell: a threshold
    takes at most 14 MI evaluations, bisection's count from cold.
    """
    rate = _code_rate(code_rate)
    if not 0.0 <= loss_margin_db <= _MAX_LOSS_MARGIN_DB:
        raise ParameterError(
            f"loss margin must lie in [0, {_MAX_LOSS_MARGIN_DB:g}] dB, got {loss_margin_db}"
        )
    target = c.stream_bits(stream) * rate
    memo = _curve(c, stream, quality, seed).memo
    # bisection halves the range 12 times
    levels = math.ceil(math.log2((_SNR_CEIL_DB - _SNR_FLOOR_DB) / 0.01))
    step = (_SNR_CEIL_DB - _SNR_FLOOR_DB) / 2**levels
    n_memo = len(memo)

    def mi(k):
        if k not in memo:
            snr = _SNR_FLOOR_DB + k * step
            memo[k] = stream_mutual_information(c, stream, snr, quality=quality, seed=seed)
        return memo[k]

    if mi(2**levels) < target:
        raise UnreachableThresholdError(
            f"{c.name}/{stream} never reaches {target:.3f} bit/symbol below "
            f"{_SNR_CEIL_DB} dB"
        )
    while True:
        points = sorted(memo.items())
        # MI 0 stands in for the index -1, below the grid
        lo, v_lo = max(((k, v) for k, v in points if v < target), default=(-1, 0.0))
        hi, v_hi = next((k, v) for k, v in points if k > lo)
        if hi - lo == 1:
            return _SNR_FLOOR_DB + hi * step + loss_margin_db
        nearest = sorted(points, key=lambda p: abs(p[1] - target))[:4]
        k = _inverse_interpolation(nearest, target)
        if not lo < k < hi:
            k = lo + (hi - lo) * (target - v_lo) / (v_hi - v_lo)
        # each evaluation left after this one can halve the bracket once
        half = 2 ** (levels + 1 - (len(memo) - n_memo))
        mi(min(max(math.floor(k), lo + 1, hi - half), hi - 1, lo + half))


def _thresholds_ascending(
    c: Constellation, stream: str, rates, quality: int, loss_margin_db: float, seed: int
) -> list[float | None]:
    """``estimate_threshold`` of each of ``rates`` on one curve, in the
    caller's order, None where the target is unreachable below 30 dB.

    Every rate is checked before the first evaluation.  The rates are
    solved in ascending order, so each search starts from the bracket
    the lower target before it left on the curve, and the evaluations
    made do not depend on the order of ``rates``.
    """
    found = {}
    for rate in sorted(rates, key=_code_rate):
        try:
            found[rate] = estimate_threshold(
                c, stream, rate, quality=quality, loss_margin_db=loss_margin_db, seed=seed
            )
        except UnreachableThresholdError:
            break  # every higher target is unreachable too
    return [found.get(rate) for rate in rates]


def estimate_hierarchical_thresholds(
    rho_he: float,
    rates=DVBS2_CODE_RATES,
    quality: int = DEFAULT_MI_QUALITY,
    loss_margin_db: float = DEFAULT_LOSS_MARGIN_DB,
    seed: int = 0,
) -> list[ModCod]:
    """HE and LE threshold entries for the hierarchical 16-APSK adopted
    for ``rho_he``, HE first, each stream's in the order of ``rates``.
    Rates whose threshold is unreachable below 30 dB are skipped.  Each
    stream's rates are solved in ascending order on one curve, so at
    rho_he = 0.80 the 22 thresholds take 58 MI evaluations whatever the
    order of ``rates``.
    """
    mod_id = hierarchical_modulation_id(rho_he)
    c = hierarchical_constellation(mod_id)
    entries = []
    for stream in ("HE", "LE"):
        ths = _thresholds_ascending(c, stream, rates, quality, loss_margin_db, seed)
        entries += [
            ModCod(mod_id, Fraction(rate), stream, round(th, 2))
            for rate, th in zip(rates, ths)
            if th is not None
        ]
    return entries


def select_pair(
    rho_he: float,
    rates=DVBS2_CODE_RATES,
    gamma_cap: float = 5.0,
    n_grid: int = 21,
    quality: int = 8000,
    seed: int = 0,
) -> Apsk16Params:
    """Geometry on the energy-solution curve minimising the mean HE
    decoding threshold over ``rates``; ties go to the smaller gamma.
    A geometry whose HE stream reaches some rate only above 30 dB is
    infeasible and skipped.  Each geometry's rates are solved in
    ascending order on its curve, and its thresholds are added in the
    order of ``rates``.
    """
    if not rates:
        raise ParameterError("rates must be nonempty")
    curve = solution_set(rho_he, n_samples=n_grid, gamma_cap=gamma_cap).curve
    best_params = None
    best_score = math.inf
    for gamma, theta in curve:
        if theta < 1e-9:
            continue  # outer points collapse; cannot build the constellation
        c = build_16apsk(Apsk16Params(gamma=gamma, theta_deg=theta))
        ths = _thresholds_ascending(c, "HE", rates, quality, 0.0, seed)
        if None in ths:
            continue
        score = 0.0
        for th in ths:  # plain left-to-right adds; sum() compensates from Python 3.12
            score += th
        score /= len(rates)
        if score < best_score:
            best_score = score
            best_params = Apsk16Params(gamma=float(gamma), theta_deg=float(theta))
    if best_params is None:
        raise ParameterError("no feasible geometry on the sampled curve")
    return best_params
