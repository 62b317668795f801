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

# Hierarchical 16-APSK geometries adopted for each HE energy fraction.
# Each pair minimises the mean HE decoding threshold over the DVB-S2 code
# rates along the corresponding energy-solution curve (see select_pair).
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
    if not modulation.startswith(_HIER_PREFIX):
        return None
    try:
        rho = float(modulation[len(_HIER_PREFIX):])
    except ValueError:
        return None
    return rho


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
                f"stream {self.stream} requires a hierarchical modulation id, "
                f"got {self.modulation!r}"
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

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

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
    seed), built on the first evaluation, and the MI by SNR that
    ``estimate_threshold`` has bisected on it.

    With ``y = s_i + scale * z`` and ``d_ij = s_i - s_j``, the log-weight
    of candidate j relative to the sent symbol i is
    ``-(|d_ij|^2 + scale * 2 Re(d_ij conj z_ik)) / n0``; the two terms
    ``A = |d|^2`` and ``B = 2 Re(d conj z)`` do not depend on the SNR.
    Candidates j run over the stream's universe row of i only.
    """

    def __init__(self, c: Constellation, stream: str, quality: int, seed: int):
        self._args = (c, stream, quality, seed)
        self.memo: dict[float, float] = {}

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
        n0 = 10.0 ** (-snr_db / 10.0)  # unit symbol energy
        # the sent symbol's term is exactly exp(0) = 1 and lies in both
        # sums, so neither underflows; every other exponent is
        # (scale^2 |z|^2 - |y - s_j|^2) / n0 <= |z|^2 / 2, so none
        # overflows and no max shift is needed
        w = b * (-math.sqrt(n0 / 2.0) / n0)
        w -= (a / n0)[:, :, None]
        np.exp(w, out=w)
        sums = np.matmul(masks, w)  # (i, sum, k)
        return log2_classes - float(np.mean(np.log(sums[:, 0] / sums[:, 1]))) / math.log(2.0)


# The one curve evaluated last, keyed by the values that fix it:
# bisection from the same bracket visits the same SNRs for every code
# rate, so consecutive rates of one curve share their first evaluations
# and every evaluation shares the curve's SNR-free terms.  A caller keeps
# the curve it was handed, so a thread on another curve starts a new one
# and never mixes two.
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


def estimate_threshold(
    c: Constellation,
    stream: str,
    code_rate: Fraction | float,
    quality: int = DEFAULT_MI_QUALITY,
    loss_margin_db: float = DEFAULT_LOSS_MARGIN_DB,
    seed: int = 0,
) -> float:
    """Decoding threshold (dB): smallest SNR at which the stream mutual
    information reaches ``stream bits * code_rate``, bisected to 0.01 dB,
    plus the implementation-loss margin, which must lie in [0, 10] dB.
    """
    try:
        rate = float(Fraction(code_rate))
    except (ValueError, ZeroDivisionError, TypeError):
        raise ParameterError(f"bad code rate {code_rate!r}") from None
    if not 0 < rate <= 1:
        raise ParameterError(f"code rate must lie in (0, 1], got {code_rate}")
    if not 0.0 <= loss_margin_db <= _MAX_LOSS_MARGIN_DB:
        raise ParameterError(
            f"loss margin must lie in [0, {_MAX_LOSS_MARGIN_DB:g}] dB, got {loss_margin_db}"
        )
    target = c.stream_bits(stream) * rate
    memo = _curve(c, stream, quality, seed).memo

    def mi(snr):
        if snr not in memo:
            memo[snr] = stream_mutual_information(c, stream, snr, quality=quality, seed=seed)
        return memo[snr]

    if mi(_SNR_CEIL_DB) < target:
        raise UnreachableThresholdError(
            f"{c.name}/{stream} never reaches {target:.3f} bit/symbol below "
            f"{_SNR_CEIL_DB} dB"
        )
    lo, hi = _SNR_FLOOR_DB, _SNR_CEIL_DB
    if mi(lo) >= target:
        return lo + loss_margin_db
    while hi - lo > 0.01:
        mid = 0.5 * (lo + hi)
        if mi(mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi + loss_margin_db


def estimate_hierarchical_thresholds(
    rho_he: float,
    rates=DVBS2_CODE_RATES,
    quality: int = DEFAULT_MI_QUALITY,
    loss_margin_db: float = DEFAULT_LOSS_MARGIN_DB,
    seed: int = 0,
) -> list[ModCod]:
    """HE and LE threshold entries for the hierarchical 16-APSK adopted
    for ``rho_he``.  Rates whose LE threshold is unreachable below 30 dB
    are skipped.
    """
    mod_id = hierarchical_modulation_id(rho_he)
    c = hierarchical_constellation(mod_id)
    entries = []
    for stream in ("HE", "LE"):
        for rate in rates:
            try:
                th = estimate_threshold(
                    c, stream, rate,
                    quality=quality, loss_margin_db=loss_margin_db, seed=seed,
                )
            except UnreachableThresholdError:
                continue
            entries.append(ModCod(mod_id, Fraction(rate), stream, round(th, 2)))
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
    infeasible and skipped.
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
        score = 0.0
        try:
            for rate in rates:
                score += estimate_threshold(
                    c, "HE", rate, quality=quality, loss_margin_db=0.0, seed=seed
                )
        except UnreachableThresholdError:
            continue
        score /= len(rates)
        if score < best_score:
            best_score = score
            best_params = Apsk16Params(gamma=float(gamma), theta_deg=float(theta))
    if best_params is None:
        raise ParameterError("no feasible geometry on the sampled curve")
    return best_params
