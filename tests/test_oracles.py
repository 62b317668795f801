"""Oracles against their slower references: the numpy grid search
against its point-by-point form, the matching dynamic programme against
enumeration."""

import numpy as np
import pytest

from hmts.errors import ParameterError

from oracles import (
    _ts_common_rate_search_scalar,
    brute_force_matching,
    brute_force_matching_enumerated,
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
