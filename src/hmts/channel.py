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
    "sample_weather",
    "generate_population",
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
    """First-order Bessel function of the first kind.

    Power series up to |x| = 12, Hankel asymptotic expansion beyond;
    absolute accuracy around 1e-10.  Accepts scalars or arrays.
    """
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)

    small = np.abs(x) <= 12.0
    if small.any():
        xs = x[small]
        half = 0.5 * xs
        term = half.copy()
        acc = term.copy()
        h2 = half * half
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
        out[small] = acc
    if (~small).any():
        xl = x[~small]
        ax = np.abs(xl)
        mu = 4.0
        p = np.ones_like(ax)
        q = np.zeros_like(ax)
        term = np.ones_like(ax)
        sign_p, sign_q = 1.0, 1.0
        for k in range(1, 11):
            term = term * (mu - (2 * k - 1) ** 2) / (8.0 * k * ax)
            if k % 2:  # odd k feeds Q
                q += sign_q * term
                sign_q = -sign_q
            else:
                sign_p = -sign_p
                p += sign_p * term
        chi = ax - 0.75 * math.pi
        val = np.sqrt(2.0 / (math.pi * ax)) * (p * np.cos(chi) - q * np.sin(chi))
        out[~small] = np.where(xl < 0, -val, val)  # J1 is odd
    return out[0] if scalar else out


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
    if np.any(angle >= null):
        raise ParameterError(
            f"angle beyond the first pattern null ({null:.6g} rad)"
        )
    u = np.sin(angle) * math.pi * cfg.antenna_diameter_m / cfg.wavelength_m
    ratio = np.ones_like(u)
    nz = u > 0
    ratio[nz] = 2.0 * bessel_j1(u[nz]) / u[nz]
    att = -20.0 * np.log10(ratio)
    att = np.maximum(att, 0.0)
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
    frac = np.asarray(radius_fraction, dtype=float)
    if np.any(frac < 0) or np.any(frac > 1):
        raise ParameterError("radius fraction must lie in [0, 1]")
    edge = beam_edge_angle(cfg)
    angle = np.arctan(frac * math.tan(edge))
    return pattern_attenuation(angle, cfg)


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

    @property
    def max_attenuation_db(self) -> float:
        return self.points[-1][0]

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


def sample_weather(cdf: WeatherCdf, rng, size=None):
    """Inverse-CDF draws with linear interpolation between breakpoints."""
    rng = np.random.default_rng(rng)
    u = rng.random(size)
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
    rng = np.random.default_rng(seed)
    loc = attenuation_at_disk_fraction(np.sqrt(rng.random(total)), beam)
    weather = sample_weather(cdf, rng, total)
    snr = snr_max_db - loc - weather
    professional = np.arange(total) < prof_terms
    snr[professional] += PROFESSIONAL_OFFSET_DB
    return Population(snr, np.where(professional, professional_weight, 1), professional)


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
