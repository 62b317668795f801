"""Oracles against their slower references: the numpy grid search
against its point-by-point form, the matching dynamic programme against
enumeration, and the location CDF against its bounds, a pinned value
and a Monte-Carlo draw of the package's disk sampler."""

import numpy as np
import pytest

from hmts.channel import BeamConfig, attenuation_at_disk_fraction
from hmts.errors import ParameterError

from oracles import (
    _ts_common_rate_search_scalar,
    brute_force_matching,
    brute_force_matching_enumerated,
    location_attenuation_cdf,
    ts_common_rate_search,
)


def test_ts_common_rate_search_matches_scalar_reference():
    rng = np.random.default_rng(7)
    for k in range(8):
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.1, 5.0, n)
        weights = rng.integers(1, 5, n)  # numpy ints, as test_rates passes them
        if k % 2:
            weights = [int(w) for w in weights]
        fast = ts_common_rate_search(rates, weights)
        assert fast == _ts_common_rate_search_scalar(rates, weights)
    # the answer 1.0 is a grid point whose total load is exactly 1
    assert ts_common_rate_search([2.0, 2.0], [1, 1]) == _ts_common_rate_search_scalar(
        [2.0, 2.0], [1, 1]
    )


class TestBruteForceMatching:
    """The subset dynamic programme against enumeration of every matching."""

    @pytest.mark.parametrize("objective", ["max", "min"])
    def test_dp_matches_enumeration(self, objective):
        rng = np.random.default_rng(59)
        for k in range(120):
            n = int(rng.choice([2, 4, 6, 8, 10]))
            if k % 2:  # tied levels
                snrs = [float(s) for s in rng.choice([0.0, 0.5, 1.0, 3.0], n)]
            else:
                snrs = [float(s) for s in rng.uniform(-5.0, 20.0, n)]
            fast = brute_force_matching(snrs, objective)
            slow = brute_force_matching_enumerated(snrs, objective)
            assert fast.delta_avg == pytest.approx(slow.delta_avg, abs=1e-12)
            if objective == "min" and not k % 2:
                # distinct values: the sorted-adjacent optimum is unique
                # (a maximum is not: any matching across the median attains it)
                assert fast.pairs == slow.pairs

    def test_size_cap(self):
        with pytest.raises(ParameterError):
            brute_force_matching(list(range(14)), "max")


@pytest.fixture(scope="module")
def beam():
    return BeamConfig()


class TestLocationCdf:
    def test_bounds(self, beam):
        assert location_attenuation_cdf(0.0, beam) == 0.0
        assert location_attenuation_cdf(4.0, beam) == pytest.approx(1.0, abs=1e-9)

    def test_midpoint_value(self, beam):
        mid = location_attenuation_cdf(2.0, beam)
        assert 0.25 < mid < 0.75
        assert mid == pytest.approx(0.5207, abs=1e-3)  # pinned by inversion

    def test_monte_carlo_disk_oracle(self, beam):
        rng = np.random.default_rng(19)
        frac = np.sqrt(rng.random(10**6))
        att = attenuation_at_disk_fraction(frac, beam)
        for a in (1.0, 2.0, 3.0):
            empirical = float(np.mean(att <= a))
            assert location_attenuation_cdf(a, beam) == pytest.approx(
                empirical, abs=0.005
            )

    def test_nondecreasing(self, beam):
        grid = np.linspace(0.0, 4.0, 41)
        vals = [location_attenuation_cdf(a, beam) for a in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self, beam):
        with pytest.raises(ParameterError):
            location_attenuation_cdf(-0.1, beam)
        with pytest.raises(ParameterError):
            location_attenuation_cdf(4.5, beam)
