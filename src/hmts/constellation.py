"""Constellation geometries for uniform and hierarchical modulations.

Hierarchical constellations merge two bit streams in one symbol: the
high-energy (HE) bits select the quadrant and the low-energy (LE) bits
select the point inside it.  The hierarchical 16-APSK is parametrised by
the ring ratio ``gamma = R2/R1`` and the half angle ``theta`` between the
outer-ring points of one quadrant, measured from the quadrant diagonal.
The share of symbol energy carried by the HE stream is

    rho_he = (1 + gamma * (1 + 2*cos(theta)))**2 / (4 * (1 + 3*gamma**2))

and ``solve_theta`` inverts that relation at fixed ``gamma``.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from ._csv import atomic_writer
from .errors import ParameterError, SymbolOverlapError

__all__ = [
    "Apsk16Params",
    "Constellation",
    "EnergySolution",
    "energy_fraction",
    "solve_theta",
    "gamma_limit",
    "solution_set",
    "build_16apsk",
    "build_uniform",
]

# Gray sequence used both for quadrants (counter-clockwise from the
# upper-right) and for the points inside one quadrant.
_GRAY2 = ("00", "01", "11", "10")
_GRAY3 = ("000", "001", "011", "010", "110", "111", "101", "100")
_QUADRANT_CENTERS_DEG = (45.0, 135.0, 225.0, 315.0)

# ring ratio of the uniform 16-APSK, a mid-range DVB-S2 value
_UNIFORM_RING_RATIO = 2.70


@dataclass(frozen=True)
class Apsk16Params:
    """Hierarchical 16-APSK geometry: ring ratio and outer half angle."""

    gamma: float
    theta_deg: float

    def __post_init__(self):
        if not math.isfinite(self.gamma) or self.gamma < 1.0:
            raise ParameterError(f"gamma must be >= 1, got {self.gamma}")
        if not 0.0 <= self.theta_deg < 90.0:
            raise ParameterError(
                f"theta_deg must lie in [0, 90), got {self.theta_deg}"
            )


@dataclass(frozen=True)
class Constellation:
    """A labeled symbol set normalised to unit mean energy.

    ``he_bits``/``le_bits`` give the label positions of the HE and LE
    streams; both are empty for non-hierarchical constellations.
    """

    name: str
    symbols: np.ndarray
    labels: tuple[str, ...]
    he_bits: tuple[int, ...] = ()
    le_bits: tuple[int, ...] = ()

    def __post_init__(self):
        symbols = np.asarray(self.symbols, dtype=complex)
        symbols.setflags(write=False)
        object.__setattr__(self, "symbols", symbols)
        if len(self.labels) != len(symbols):
            raise ParameterError("one label per symbol required")
        if len(set(self.labels)) != len(self.labels):
            raise ParameterError("labels must be distinct")
        es = float(np.mean(np.abs(symbols) ** 2))
        if abs(es - 1.0) > 1e-12:
            raise ParameterError(f"mean symbol energy must be 1, got {es!r}")

    @property
    def bits_per_symbol(self) -> int:
        return len(self.labels[0])

    @property
    def is_hierarchical(self) -> bool:
        return bool(self.he_bits)

    def stream_bits(self, stream: str) -> int:
        """Number of bits carried per symbol by ``stream``."""
        if stream == "single":
            return self.bits_per_symbol
        if stream == "HE":
            return len(self.he_bits)
        if stream == "LE":
            return len(self.le_bits)
        raise ParameterError(f"unknown stream {stream!r}")

    def stream_labels(self, stream: str) -> tuple[str, ...]:
        """Per-symbol label restricted to the bit positions of ``stream``."""
        if stream == "single":
            return self.labels
        positions = self.he_bits if stream == "HE" else self.le_bits
        if not positions:
            raise ParameterError(
                f"{self.name} carries no {stream} stream"
            )
        return tuple("".join(lab[i] for i in positions) for lab in self.labels)

    def to_csv(self, path: str | os.PathLike) -> None:
        """Write ``symbol_index,I,Q,bits`` rows."""
        with atomic_writer(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["symbol_index", "I", "Q", "bits"])
            for k, (sym, lab) in enumerate(zip(self.symbols, self.labels)):
                writer.writerow([k, f"{sym.real:.12g}", f"{sym.imag:.12g}", lab])


@dataclass(frozen=True)
class EnergySolution:
    """Sampled (gamma, theta) curve at a fixed HE energy fraction."""

    rho_he: float
    gamma_lim: float
    curve: np.ndarray = field(repr=False)  # shape (n, 2): gamma, theta_deg

    def __post_init__(self):
        curve = np.asarray(self.curve, dtype=float)
        curve.setflags(write=False)
        object.__setattr__(self, "curve", curve)

    def to_csv(self, path: str | os.PathLike) -> None:
        with atomic_writer(path) as fh:
            writer = csv.writer(fh)
            writer.writerow(["gamma", "theta_deg"])
            for g, t in self.curve:
                writer.writerow([f"{g:.12g}", f"{t:.12g}"])


def energy_fraction(gamma: float, theta_deg: float) -> float:
    """HE energy share of the hierarchical 16-APSK with the given geometry.

    Total in gamma > 0 and theta in [0, 180]; values produced by
    ``solve_theta`` always land in [0.5, 1).
    """
    if not math.isfinite(gamma) or gamma <= 0:
        raise ParameterError(f"gamma must be > 0, got {gamma}")
    if not 0.0 <= theta_deg <= 180.0:
        raise ParameterError(f"theta_deg must lie in [0, 180], got {theta_deg}")
    c = math.cos(math.radians(theta_deg))
    return (1.0 + gamma * (1.0 + 2.0 * c)) ** 2 / (4.0 * (1.0 + 3.0 * gamma**2))


def _f(gamma: float, rho_he: float) -> float:
    """cos(theta) solving the energy equation at fixed gamma and rho_he."""
    return 0.5 * ((math.sqrt(4.0 * rho_he * (1.0 + 3.0 * gamma**2)) - 1.0) / gamma - 1.0)


def _check_rho(rho_he: float) -> None:
    if not 0.5 <= rho_he < 1.0:
        raise ParameterError(f"rho_he must lie in [0.5, 1), got {rho_he}")


def solve_theta(gamma: float, rho_he: float) -> float:
    """Outer half angle (degrees) giving HE energy share ``rho_he``.

    Raises ParameterError when ``gamma`` exceeds ``gamma_limit(rho_he)``
    and no angle exists.
    """
    _check_rho(rho_he)
    if not math.isfinite(gamma) or gamma < 1.0:
        raise ParameterError(f"gamma must be >= 1, got {gamma}")
    value = _f(gamma, rho_he)
    if value > 1.0 + 1e-9:
        raise ParameterError(
            f"gamma={gamma} exceeds gamma_limit({rho_he})={gamma_limit(rho_he):.6g}; "
            "no outer half angle exists"
        )
    if value >= 1.0 - 1e-12:
        return 0.0  # at the feasibility boundary up to rounding
    return math.degrees(math.acos(value))


def gamma_limit(rho_he: float) -> float:
    """Largest feasible ring ratio at ``rho_he`` (inf when rho_he <= 0.75)."""
    _check_rho(rho_he)
    if rho_he <= 0.75:
        return math.inf
    return (3.0 + 4.0 * math.sqrt(3.0 * rho_he * (1.0 - rho_he))) / (3.0 * (4.0 * rho_he - 3.0))


def solution_set(rho_he: float, n_samples: int = 512, gamma_cap: float = 5.0) -> EnergySolution:
    """Sample the (gamma, theta) solution curve uniformly in gamma.

    The gamma range is [1, min(gamma_cap, gamma_limit)]; large ring ratios
    are unrealistic in practice, hence the cap (default 5).
    """
    _check_rho(rho_he)
    if n_samples < 2:
        raise ParameterError(f"n_samples must be >= 2, got {n_samples}")
    if gamma_cap < 1.0:
        raise ParameterError(f"gamma_cap must be >= 1, got {gamma_cap}")
    lim = gamma_limit(rho_he)
    hi = min(gamma_cap, lim)
    gammas = np.linspace(1.0, hi, n_samples)
    thetas = np.array([solve_theta(g, rho_he) for g in gammas])
    return EnergySolution(rho_he=rho_he, gamma_lim=lim, curve=np.column_stack([gammas, thetas]))


def build_16apsk(params: Apsk16Params, name: str | None = None) -> Constellation:
    """Hierarchical 16-APSK: 4 inner-ring points on the diagonals plus 12
    outer-ring points, three per quadrant at the diagonal and diagonal
    +/- theta.

    The LE labels follow the sweep outer(-theta), outer(0), outer(+theta),
    inner so that consecutive points differ in one bit.
    """
    gamma, theta = params.gamma, params.theta_deg
    if theta < 1e-9:
        raise SymbolOverlapError(
            "theta = 0 collapses the outer-ring points of each quadrant onto "
            "the diagonal; symbols coincide"
        )
    r1 = 2.0 / math.sqrt(1.0 + 3.0 * gamma**2)
    r2 = gamma * r1
    symbols = []
    labels = []
    for q, center in enumerate(_QUADRANT_CENTERS_DEG):
        c = math.radians(center)
        t = math.radians(theta)
        points = [
            r2 * np.exp(1j * (c - t)),
            r2 * np.exp(1j * c),
            r2 * np.exp(1j * (c + t)),
            r1 * np.exp(1j * c),
        ]
        symbols.extend(points)
        labels.extend(_GRAY2[q] + le for le in _GRAY2)
    arr = np.array(symbols)
    arr = arr / math.sqrt(float(np.mean(np.abs(arr) ** 2)))
    return Constellation(
        name=name or f"H16APSK(gamma={gamma:g},theta={theta:g})",
        symbols=arr,
        labels=tuple(labels),
        he_bits=(0, 1),
        le_bits=(2, 3),
    )


def build_uniform(name: str) -> Constellation:
    """Standard unit-energy constellation: QPSK, 8PSK or 16APSK-uniform."""
    if name == "QPSK":
        symbols = np.exp(1j * np.radians(np.array(_QUADRANT_CENTERS_DEG)))
        return Constellation(name="QPSK", symbols=symbols, labels=_GRAY2)
    if name == "8PSK":
        angles = np.radians(22.5 + 45.0 * np.arange(8))
        return Constellation(name="8PSK", symbols=np.exp(1j * angles), labels=_GRAY3)
    if name == "16APSK-uniform":
        inner = build_16apsk(Apsk16Params(gamma=_UNIFORM_RING_RATIO, theta_deg=30.0))
        return Constellation(
            name="16APSK-uniform",
            symbols=inner.symbols,
            labels=inner.labels,
        )
    raise ParameterError(
        f"unknown modulation {name!r}; expected QPSK, 8PSK or 16APSK-uniform"
    )
