"""Geostationary spot-beam channel model.

Receiver SNR = beam-center SNR minus a location attenuation (parabolic
antenna radiation pattern over a uniformly populated disk) minus a weather
attenuation drawn from an empirical distribution, plus a class offset for
professional terminals.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import math
import os
from dataclasses import dataclass
from importlib import resources
from typing import NamedTuple

import numpy as np

from ._csv import atomic_writer, read_rows
from .errors import ParameterError

__all__ = [
    "BeamConfig",
    "WeatherCdf",
    "Population",
    "bessel_j1",
    "J1_FIRST_ZERO",
    "pattern_attenuation",
    "beam_edge_angle",
    "attenuation_at_disk_fraction",
    "generate_population",
    "generate_populations",
    "write_population",
    "read_population",
    "default_weather_cdf",
]

SPEED_OF_LIGHT = 299_792_458.0
PROFESSIONAL_OFFSET_DB = 5.0

_WEATHER_HEADER = ("attenuation_db", "cumulative_probability")
_POPULATION_HEADER = ("snr_db", "class", "weight")
_CLASSES = ("personal", "professional")  # indexed by the professional flag
_MAX_WEIGHT = 2**63 - 1  # the largest weight an int64 array holds

J1_FIRST_ZERO = 3.8317059702075125


def bessel_j1(x):
    """First-order Bessel function of the first kind for |x| <= 12, as a
    power series; absolute accuracy around 1e-10.  The pattern needs
    only the main lobe, below the first zero at 3.83.  Accepts scalars
    or arrays; a NaN or an |x| above 12 raises ParameterError.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    if not (np.abs(x) <= 12.0).all():  # NaN fails too
        raise ParameterError("bessel_j1 needs |x| <= 12")
    term = x * 0.5
    acc = term.copy()
    if x.size:  # max() of an empty array raises
        h2 = term * term
        # Once k(k + 1) > 2 max(h2), each later term is under half the one
        # before it.  If this term is then also under a quarter of
        # |spacing(acc)| everywhere (a quarter: the gap below a power of two
        # is half the gap above; np.spacing is negative for a negative acc),
        # no later term can change acc, and the sum equals the 39-term sum
        # to the bit.
        settled = 2.0 * h2.max()
        for k in range(1, 40):
            term *= h2
            term /= -(k * (k + 1))  # in place, the bits of -term * h2 / (k * (k + 1))
            acc += term
            if k % 4 == 0 and k * (k + 1) > settled and (
                np.abs(term) < np.abs(np.spacing(acc)) / 4
            ).all():
                break
    return acc[0] if scalar else acc


@dataclass(frozen=True)
class BeamConfig:
    """The spot-beam antenna: a parabolic dish whose beam edge is where
    the pattern is ``edge_attenuation_db`` below boresight."""

    antenna_diameter_m: float = 1.5
    frequency_hz: float = 20e9
    edge_attenuation_db: float = 4.0

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            try:
                # a bool is an int to Python; math.isfinite raises on a
                # non-number and on an int beyond float range
                ok = not isinstance(value, bool) and math.isfinite(value) and value > 0
            except (TypeError, OverflowError):
                ok = False
            if not ok:
                raise ParameterError(f"{f.name} must be a finite number > 0, got {value!r}")

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.frequency_hz

    @property
    def first_null_angle_rad(self) -> float:
        s = J1_FIRST_ZERO * self.wavelength_m / (math.pi * self.antenna_diameter_m)
        return math.asin(s) if s < 1.0 else 0.5 * math.pi


def pattern_attenuation(off_axis_angle_rad, cfg: BeamConfig):
    """Radiation-pattern attenuation (dB >= 0) of a parabolic antenna.

    Valid up to the first pattern null; zero at boresight and strictly
    increasing in between.
    """
    angle = np.asarray(off_axis_angle_rad, dtype=float)
    scalar = angle.ndim == 0
    angle = np.abs(np.atleast_1d(angle))
    null = cfg.first_null_angle_rad
    if not (angle < null).all():  # NaN fails too
        raise ParameterError(
            f"angle must be a number below the first pattern null ({null:.6g} rad)"
        )
    # in place, each step with the bits of the expression
    # -20 log10(2 J1(u) / u), u = sin(angle) * pi * D / wavelength
    u = np.sin(angle, out=angle)
    u *= math.pi
    u *= cfg.antenna_diameter_m
    u /= cfg.wavelength_m
    nz = u > 0
    ratio = bessel_j1(u[nz])
    ratio *= 2.0
    ratio /= u[nz]
    att = np.zeros_like(u)  # log10(1) at boresight
    att[nz] = np.log10(ratio, out=ratio)
    att *= -20.0
    np.maximum(att, 0.0, out=att)
    return float(att[0]) if scalar else att


@functools.lru_cache(maxsize=None)
def beam_edge_angle(cfg: BeamConfig) -> float:
    """Off-axis angle (rad) at which the pattern attenuation equals the
    configured edge attenuation; bisected once per antenna."""
    lo, hi = 0.0, cfg.first_null_angle_rad * (1.0 - 1e-12)
    target = cfg.edge_attenuation_db
    if pattern_attenuation(hi, cfg) < target:
        raise ParameterError("edge attenuation not reached before the first null")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pattern_attenuation(mid, cfg) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def attenuation_at_disk_fraction(radius_fraction, cfg: BeamConfig):
    """Location attenuation at a given fraction of the beam-edge ground
    radius.  The flat-Earth ground radius is altitude * tan(angle), so
    the altitude cancels out of the fraction."""
    # a copy, even of a scalar, which becomes the angle in place
    angle = np.array(radius_fraction, dtype=float)
    if not ((0 <= angle) & (angle <= 1)).all():  # NaN fails too
        raise ParameterError("radius fraction must lie in [0, 1]")
    angle *= math.tan(beam_edge_angle(cfg))
    return pattern_attenuation(np.arctan(angle, out=angle), cfg)


@dataclass(frozen=True)
class WeatherCdf:
    """Piecewise-linear CDF of the weather attenuation in dB."""

    points: tuple[tuple[float, float], ...]  # (attenuation_db, cum_prob)

    def __post_init__(self):
        pts = tuple((float(a), float(p)) for a, p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ParameterError("weather CDF needs at least one breakpoint")
        attens = [a for a, _ in pts]
        probs = [p for _, p in pts]
        # the range check rejects NaN and inf
        if any(not 0 <= a < math.inf for a in attens) or any(
            b < a for a, b in zip(attens, attens[1:])
        ):
            raise ParameterError("attenuations must be finite, nonnegative and nondecreasing")
        if any(not 0 <= p <= 1 for p in probs) or any(q < p for p, q in zip(probs, probs[1:])):
            raise ParameterError("probabilities must be nondecreasing within [0, 1]")
        if probs[-1] != 1.0:
            raise ParameterError("the last cumulative probability must be 1")

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "WeatherCdf":
        pts = []
        for lineno, row in read_rows(path, _WEATHER_HEADER, ParameterError):
            try:
                atten, prob = float(row[0]), float(row[1])
            except (ValueError, IndexError):
                raise ParameterError(f"{path}: line {lineno}: bad breakpoint {row!r}") from None
            if not math.isfinite(atten):
                raise ParameterError(
                    f"{path}: line {lineno}: attenuation_db must be finite, got {atten}")
            pts.append((atten, prob))
        if not pts:
            raise ParameterError(f"{path}: no breakpoints found")
        return cls(points=tuple(pts))


def default_weather_cdf() -> WeatherCdf:
    """Placeholder attenuation distribution shipped with the package."""
    ref = resources.files("hmts.data").joinpath("weather_cdf.csv")
    with resources.as_file(ref) as path:
        return WeatherCdf.from_csv(path)


def _weather_at(cdf: WeatherCdf, u):
    """The attenuation at cumulative probability ``u``, interpolated
    linearly between breakpoints."""
    probs = np.array([p for _, p in cdf.points])
    attens = np.array([a for a, _ in cdf.points])
    return np.interp(u, probs, attens)


class Population(NamedTuple):
    """A terminal population as arrays, one entry per terminal: SNR
    (dB), the number of receivers it serves, and its class.
    ``generate_population`` puts the professional terminals first."""

    snr_db: np.ndarray  # float64
    weight: np.ndarray  # int, >= 1
    professional: np.ndarray  # bool; False is a personal terminal


def generate_population(
    n: int,
    snr_max_db: float,
    beam: BeamConfig,
    cdf: WeatherCdf,
    professional_share: float = 0.0,
    professional_weight: int = 1,
    seed=0,
) -> Population:
    """Draw a terminal population serving ``n`` receivers under the
    antenna ``beam`` with beam-center SNR ``snr_max_db``.

    Roughly ``professional_share * n`` receivers sit behind professional
    terminals (``professional_weight`` receivers each, +5 dB); the rest
    use personal terminals.  With the default weight 1 every served
    receiver is its own population entry.  For weights above 1 the
    terminal count is kept even so the population can always be paired,
    at the cost of a dropped terminal when the split comes out odd.

    This is the one-row call of ``generate_populations``.
    """
    stack = generate_populations(n, snr_max_db, beam, cdf, professional_share,
                                 professional_weight, seeds=(seed,))
    return Population(*(a[0] for a in stack))


def generate_populations(
    n: int,
    snr_max_db: float,
    beam: BeamConfig,
    cdf: WeatherCdf,
    professional_share: float = 0.0,
    professional_weight: int = 1,
    *,
    seeds,
) -> Population:
    """``generate_population`` for each of ``seeds``, stacked: row t of
    each (len(seeds), terminals) array is the population of ``seeds[t]``,
    bit for bit.

    Each row draws from its own generator, in the same order: the
    locations, then the weather.  The arithmetic after the draws runs
    once on the whole stack; every step of it is element by element, and
    ``bessel_j1`` sums to the same bits however its input is split.
    ``weight`` and ``professional`` are the same in every row and come
    as read-only broadcast views.
    """
    if n < 2 or n % 2:
        raise ParameterError(f"n must be even and >= 2, got {n}")
    if not 0.0 <= professional_share <= 1.0:
        raise ParameterError("professional_share must lie in [0, 1]")
    if professional_weight < 1:
        raise ParameterError("professional_weight must be >= 1")
    prof_terms = round(n * professional_share / professional_weight)
    prof_terms = min(prof_terms, n // professional_weight)
    personal = n - prof_terms * professional_weight
    if (personal + prof_terms) % 2:
        if personal > 0:
            personal -= 1
        else:
            prof_terms -= 1
    total = personal + prof_terms
    # one row of uniform draws per seed for the locations, one for the weather
    u = np.empty((2, len(seeds), total))
    for row, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        rng.random(out=u[0, row])
        rng.random(out=u[1, row])
    loc = attenuation_at_disk_fraction(np.sqrt(u[0]), beam)
    snr = snr_max_db - loc - _weather_at(cdf, u[1])
    snr[:, :prof_terms] += PROFESSIONAL_OFFSET_DB
    professional = np.arange(total) < prof_terms
    weight = np.where(professional, professional_weight, 1)
    return Population(snr, np.broadcast_to(weight, snr.shape),
                      np.broadcast_to(professional, snr.shape))


def write_population(population: Population, path: str | os.PathLike) -> None:
    with atomic_writer(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(_POPULATION_HEADER)
        rows = zip(*(a.tolist() for a in population))
        writer.writerows((f"{s:.10g}", _CLASSES[p], w) for s, w, p in rows)


def read_population(path: str | os.PathLike) -> Population:
    """Read a population CSV, checking every row's SNR, class and weight."""
    snrs, weights, professional = [], [], []
    for lineno, row in read_rows(path, _POPULATION_HEADER, ParameterError):
        try:
            snr, kind, weight = float(row[0]), row[1].strip(), int(row[2])
        except (ValueError, IndexError):
            raise ParameterError(f"{path}: line {lineno}: bad receiver row {row!r}") from None
        if not math.isfinite(snr):
            raise ParameterError(f"{path}: line {lineno}: snr_db must be finite, got {snr}")
        if kind not in _CLASSES:
            raise ParameterError(f"{path}: line {lineno}: unknown terminal class {kind!r}")
        if weight < 1:
            raise ParameterError(f"{path}: line {lineno}: weight must be >= 1, got {weight}")
        if weight > _MAX_WEIGHT:
            raise ParameterError(
                f"{path}: line {lineno}: weight must be <= 2**63 - 1, got {weight}")
        snrs.append(snr)
        weights.append(weight)
        professional.append(kind == "professional")
    if not snrs:
        raise ParameterError(f"{path}: no receivers found")
    return Population(np.array(snrs), np.array(weights), np.array(professional))
