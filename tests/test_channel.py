"""Spot-beam geometry, weather sampling and population tests."""

import dataclasses
import math

import numpy as np
import pytest

from hmts.channel import (
    J1_FIRST_ZERO,
    BeamConfig,
    Population,
    WeatherCdf,
    beam_edge_angle,
    bessel_j1,
    default_weather_cdf,
    generate_population,
    pattern_attenuation,
    read_population,
    sample_weather,
    write_population,
)
from hmts import channel
from hmts.errors import ParameterError
from hmts.sim import ScenarioConfig, run_scenario

from oracles import bessel_j1_series, bessel_j1_simpson, location_attenuation_cdf


SNR_MAX = 10.0  # the beam-center SNR of the populations drawn here


@pytest.fixture(scope="module")
def beam():
    return BeamConfig()


class TestBesselJ1:
    def test_against_integral_oracle(self):
        for x in np.concatenate([np.linspace(0.05, 11.9, 41), np.linspace(12.1, 20.0, 9)]):
            assert bessel_j1(x) == pytest.approx(bessel_j1_simpson(float(x)), abs=1e-10)

    def test_tabulated_values(self):
        assert bessel_j1(1.0) == pytest.approx(0.4400505857449335, abs=1e-12)
        assert bessel_j1(2.0) == pytest.approx(0.5767248077568734, abs=1e-12)
        assert bessel_j1(5.0) == pytest.approx(-0.3275791375914652, abs=1e-12)

    def test_first_zero(self):
        assert bessel_j1(J1_FIRST_ZERO) == pytest.approx(0.0, abs=1e-10)
        assert bessel_j1(J1_FIRST_ZERO - 0.01) > 0.0
        assert bessel_j1(J1_FIRST_ZERO + 0.01) < 0.0

    def test_odd_symmetry_and_arrays(self):
        xs = np.array([0.3, 1.0, 14.0])
        assert np.allclose(bessel_j1(-xs), -bessel_j1(xs))


def assert_series_bits(x):
    """``bessel_j1`` on ``x``, whole and in 500-point chunks, has the
    bits of the 39-term series: its early stop changes no result."""
    assert bessel_j1(x).tobytes() == bessel_j1_series(x).tobytes()
    for start in range(0, len(x), 500):
        chunk = x[start:start + 500]
        assert bessel_j1(chunk).tobytes() == bessel_j1_series(chunk).tobytes(), start


class TestBesselSeriesStop:
    def test_dense_grid(self):
        tiny = np.geomspace(1e-300, 1e-2, 2000)
        assert_series_bits(np.concatenate([
            np.linspace(-12.0, 12.0, 240_000),  # 0 is not a grid point
            np.random.default_rng(5).uniform(-12.0, 12.0, 60_000),
            tiny, -tiny,  # x -> 0
            J1_FIRST_ZERO + np.linspace(-1e-3, 1e-3, 2001),  # the sum cancels to ~0
        ]))

    def test_zero_and_subnormal(self):
        # acc's spacing is the smallest subnormal or 0 there: no stop
        assert_series_bits(np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1.0]))

    def test_drawn_populations(self, beam, monkeypatch):
        # the arguments generate_population passes, recorded on the way
        seen = []

        def recording(x):
            seen.append(np.array(x))
            return bessel_j1(x)

        beam_edge_angle(beam)  # bisected once per antenna, before the recording
        monkeypatch.setattr(channel, "bessel_j1", recording)
        weather = default_weather_cdf()
        # the locations depend on the seed and the terminal count, not on
        # the beam-center SNR
        for seed in range(12):
            generate_population(500, SNR_MAX, beam, weather, seed=seed)
            generate_population(1000, SNR_MAX, beam, weather, professional_share=0.5,
                                professional_weight=2, seed=seed)
        assert len(seen) == 24
        for x in seen:
            assert_series_bits(x)


class TestPatternAttenuation:
    def test_boresight(self, beam):
        assert pattern_attenuation(0.0, beam) == 0.0

    def test_monotone_to_first_null(self, beam):
        angles = np.linspace(0.0, beam.first_null_angle_rad * 0.999, 200)
        att = pattern_attenuation(angles, beam)
        assert np.all(np.diff(att) > 0.0)

    def test_edge_angle_hits_edge_attenuation(self, beam):
        angle = beam_edge_angle(beam)
        assert pattern_attenuation(angle, beam) == pytest.approx(4.0, abs=0.01)
        # independent route: coarse scan bracketing the 4 dB crossing
        grid = np.linspace(0.0, beam.first_null_angle_rad * 0.99, 20000)
        att = pattern_attenuation(grid, beam)
        k = int(np.searchsorted(att, 4.0))
        assert grid[k - 1] <= angle <= grid[k]

    def test_beyond_null_rejected(self, beam):
        with pytest.raises(ParameterError):
            pattern_attenuation(beam.first_null_angle_rad * 1.01, beam)

    def test_beam_scale(self, beam):
        # 1.5 m dish at 20 GHz: edge of a 4 dB spot is about 0.34 degrees
        assert math.degrees(beam_edge_angle(beam)) == pytest.approx(0.336, abs=0.01)

    def test_edge_angle_bisected_once_per_geometry(self):
        # the angle depends on the antenna only: a sweep over five snr_max
        # values bisects once, and the angle keeps its pinned value
        beam_edge_angle.cache_clear()
        cfg = ScenarioConfig(n_receivers=20, n_trials=1, strategies=("A",),
                             snr_max_grid=(7.0, 10.0, 13.0, 16.0, 18.0))
        run_scenario(cfg)
        assert beam_edge_angle.cache_info()[:2] == (4, 1)  # (hits, misses)
        assert beam_edge_angle(BeamConfig()) == 0.005866821825046022
        other = BeamConfig(antenna_diameter_m=2.4, edge_attenuation_db=3.0)
        assert beam_edge_angle(other) == 0.003208220605844872
        assert beam_edge_angle.cache_info().misses == 2


class TestBeamConfig:
    def test_the_antenna_only(self):
        assert [f.name for f in dataclasses.fields(BeamConfig)] == [
            "antenna_diameter_m", "frequency_hz", "edge_attenuation_db"]
        beam = BeamConfig(antenna_diameter_m=2, frequency_hz=np.float64(12e9),
                          edge_attenuation_db=np.int64(3))
        assert beam == BeamConfig(2.0, 12e9, 3.0)
        with pytest.raises(TypeError):
            BeamConfig(satellite_altitude_m=35_786_000.0)  # the altitude cancels out

    @pytest.mark.parametrize("field", ["antenna_diameter_m", "frequency_hz", "edge_attenuation_db"])
    def test_rejects_all_but_finite_positive_numbers(self, field):
        nan, inf = float("nan"), float("inf")
        for value in (0, -1.5, nan, inf, -inf, True, False, "x", "1.5", None, [1.5], 10**400):
            with pytest.raises(ParameterError, match=f"^{field} must be a finite number > 0"):
                BeamConfig(**{field: value})


class TestWeatherCdf:
    def test_degenerate_always_zero(self):
        cdf = WeatherCdf(points=((0.0, 1.0),))
        draws = sample_weather(cdf, 3, size=1000)
        assert np.all(draws == 0.0)

    def test_two_point_tail_frequency(self):
        cdf = WeatherCdf(points=((0.0, 0.9), (10.0, 1.0)))
        draws = sample_weather(cdf, 5, size=10**5)
        assert float(np.mean(draws > 0.0)) == pytest.approx(0.10, abs=0.01)

    def test_seed_reproducibility(self):
        cdf = default_weather_cdf()
        a = sample_weather(cdf, 42, size=100)
        b = sample_weather(cdf, 42, size=100)
        assert np.array_equal(a, b)

    def test_validation(self, tmp_path):
        with pytest.raises(ParameterError):
            WeatherCdf(points=((0.0, 0.5), (1.0, 0.4), (2.0, 1.0)))
        with pytest.raises(ParameterError):
            WeatherCdf(points=((1.0, 0.5), (0.5, 1.0)))
        with pytest.raises(ParameterError):
            WeatherCdf(points=((0.0, 0.5),))  # never reaches 1
        # NaN and inf pass the order checks; only a finiteness check stops them
        nan, inf = float("nan"), float("inf")
        for points in (((0.0, 0.5), (nan, 0.9), (20.0, 1.0)), ((0.0, 0.5), (inf, 1.0))):
            with pytest.raises(ParameterError, match="must be finite"):
                WeatherCdf(points=points)
        for rows in ("nan,0.9\n20,1.0", "inf,1.0"):
            path = tmp_path / "weather.csv"
            path.write_text(f"attenuation_db,cumulative_probability\n0,0.5\n{rows}\n")
            with pytest.raises(ParameterError, match="line 3: attenuation_db must be finite"):
                WeatherCdf.from_csv(path)

    def test_default_is_mostly_clear_sky(self):
        cdf = default_weather_cdf()
        probs = dict(cdf.points)
        below_one = max(p for a, p in cdf.points if a <= 1.0)
        assert below_one > 0.5
        assert cdf.max_attenuation_db >= 8.0


class TestGeneratePopulation:
    def test_all_personal_below_snr_max(self, beam):
        pop = generate_population(200, SNR_MAX, beam, default_weather_cdf(), seed=1)
        assert not pop.professional.any()
        assert (pop.weight == 1).all()
        assert (pop.snr_db <= SNR_MAX).all()

    def test_arrays(self, beam):
        pop = generate_population(
            60, SNR_MAX, beam, default_weather_cdf(), professional_share=0.5,
            professional_weight=3, seed=4,
        )
        assert isinstance(pop, Population)
        assert pop.snr_db.dtype == np.float64
        assert pop.weight.dtype.kind == "i"
        assert pop.professional.dtype == bool
        assert pop.snr_db.shape == pop.weight.shape == pop.professional.shape == (40,)
        # professional terminals come first
        k = int(pop.professional.sum())
        assert k == 10 and pop.professional[:k].all()
        assert (pop.weight == np.where(pop.professional, 3, 1)).all()

    def test_snr_bounds(self, beam):
        cdf = default_weather_cdf()
        pop = generate_population(
            500, SNR_MAX, beam, cdf, professional_share=0.3, professional_weight=1, seed=2
        )
        lo = SNR_MAX - 4.0 - cdf.max_attenuation_db
        hi = SNR_MAX + 5.0
        assert ((lo <= pop.snr_db) & (pop.snr_db <= hi)).all()

    def test_clear_sky_matches_location_cdf(self, beam):
        clear = WeatherCdf(points=((0.0, 1.0),))
        pop = generate_population(20000, SNR_MAX, beam, clear, seed=3)
        att = np.sort(SNR_MAX - pop.snr_db)
        grid = np.linspace(0.01, 3.99, 80)
        ks = max(
            abs(float(np.mean(att <= a)) - location_attenuation_cdf(a, beam))
            for a in grid
        )
        assert ks <= 0.02

    def test_full_professional_shift(self, beam):
        cdf = default_weather_cdf()
        base = generate_population(100, SNR_MAX, beam, cdf, professional_share=0.0, seed=7)
        prof = generate_population(
            100, SNR_MAX, beam, cdf, professional_share=1.0, professional_weight=1, seed=7
        )
        np.testing.assert_allclose(prof.snr_db, base.snr_db + 5.0, rtol=0, atol=1e-12)
        assert prof.professional.all() and (prof.weight == 1).all()

    def test_even_terminal_count_with_weights(self, beam):
        cdf = default_weather_cdf()
        for n, share, w in [(500, 0.5, 4), (500, 0.3, 3), (100, 0.9, 7), (50, 0.2, 5)]:
            pop = generate_population(
                n, SNR_MAX, beam, cdf, professional_share=share, professional_weight=w, seed=11
            )
            assert len(pop.snr_db) % 2 == 0
            served = int(pop.weight.sum())
            assert abs(served - n) <= w  # at most one dropped terminal
            prof_served = int(pop.weight[pop.professional].sum())
            assert abs(prof_served - share * n) <= w

    def test_validation(self, beam):
        cdf = default_weather_cdf()
        with pytest.raises(ParameterError):
            generate_population(3, SNR_MAX, beam, cdf)
        with pytest.raises(ParameterError):
            generate_population(10, SNR_MAX, beam, cdf, professional_share=1.2)


class TestPopulationIo:
    def test_round_trip(self, tmp_path, beam):
        pop = generate_population(
            40, SNR_MAX, beam, default_weather_cdf(), professional_share=0.5,
            professional_weight=3, seed=13,
        )
        path = tmp_path / "population.csv"
        write_population(pop, path)
        again = read_population(path)
        # ten significant digits on disk
        np.testing.assert_allclose(again.snr_db, pop.snr_db, rtol=1e-9)
        assert again.snr_db.dtype == np.float64
        for a, b in zip(pop[1:], again[1:]):
            assert a.dtype == b.dtype and (a == b).all()
        # what was read back is written back byte for byte
        again_path = tmp_path / "again.csv"
        write_population(again, again_path)
        assert again_path.read_bytes() == path.read_bytes()
        assert (read_population(again_path).snr_db == again.snr_db).all()

    def test_written_rows(self, tmp_path):
        pop = Population(
            np.array([1.0 / 3.0, -0.0, 12.5]), np.array([4, 1, 1]),
            np.array([True, False, False]),
        )
        path = tmp_path / "population.csv"
        write_population(pop, path)
        assert path.read_text().splitlines() == [
            "snr_db,class,weight",
            "0.3333333333,professional,4",
            "-0,personal,1",
            "12.5,personal,1",
        ]

    def test_receiver_validation(self, tmp_path):
        path = tmp_path / "population.csv"
        for row, problem in [
            ("5.0,corporate,1", "unknown terminal class 'corporate'"),
            ("5.0,personal,0", "weight must be >= 1"),
            ("5.0,personal,-1", "weight must be >= 1"),
            ("5.0,personal,9223372036854775808", "weight must be <= 2\\*\\*63 - 1"),
            ("6.0,professional,99999999999999999999", "weight must be <= 2\\*\\*63 - 1"),
            ("5.0,personal,1.5", "bad receiver row"),
            ("nan,personal,1", "snr_db must be finite"),
            ("inf,personal,1", "snr_db must be finite"),
            ("-inf,professional,1", "snr_db must be finite"),
            ("5.0,personal", "bad receiver row"),
        ]:
            path.write_text(f"snr_db,class,weight\n7.0,personal,1\n{row}\n")
            with pytest.raises(ParameterError, match=f"line 3: {problem}"):
                read_population(path)

    def test_largest_weight_read_as_int64(self, tmp_path):
        path = tmp_path / "population.csv"
        path.write_text("snr_db,class,weight\n7.0,personal,1\n6.0,professional,9223372036854775807\n")
        pop = read_population(path)
        assert pop.weight.dtype == np.int64
        assert pop.weight.tolist() == [1, 2**63 - 1]
