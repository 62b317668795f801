"""Time-sharing allocations and achievable-region tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmts.capacity import default_table
from hmts.errors import DegenerateRateError, InvariantError, ParameterError
from hmts.rates import (
    RatePair,
    convex_hull,
    equal_rate_point,
    hierarchical_gain,
    max_min_weighted,
    operating_points,
    pair_gain,
    ts_rate_n,
    ts_rate_two,
)

from oracles import max_min_rate_exhaustive, ts_common_rate_search, two_rate_ts_grid


@pytest.fixture(scope="module")
def table():
    return default_table()


class TestTsRateTwo:
    def test_two_three(self):
        assert ts_rate_two(2.0, 3.0) == 1.2

    def test_symmetric(self):
        assert ts_rate_two(1.7, 1.7) == pytest.approx(0.85)

    def test_grid_search_oracle(self):
        assert ts_rate_two(2.0, 3.0) == pytest.approx(two_rate_ts_grid(2.0, 3.0), abs=1e-4)

    def test_zero_rate_error(self):
        with pytest.raises(DegenerateRateError):
            ts_rate_two(0.0, 3.0)
        with pytest.raises(DegenerateRateError):
            ts_rate_two(2.0, 0.0)


    def test_arrays_elementwise(self):
        rng = np.random.default_rng(3)
        r1, r2 = rng.uniform(0.1, 4.0, (2, 50))
        ours = ts_rate_two(r1, r2)
        assert ours.tolist() == [ts_rate_two(a, b) for a, b in zip(r1.tolist(), r2.tolist())]
        # a float against an array broadcasts, in the same product form
        assert ts_rate_two(1.5, r2).tolist() == [ts_rate_two(1.5, b) for b in r2.tolist()]
        assert type(ts_rate_two(2.0, 3.0)) is float

    def test_empty_array(self):
        # no entry, so nothing is degenerate, even against a zero rate
        assert ts_rate_two(0.0, np.array([])).shape == (0,)

    @pytest.mark.parametrize("r1, r2", [
        (np.array([1.0, 0.0, 2.0]), np.array([1.0, 1.0, 1.0])),
        (1.0, np.array([2.0, -1.0])),
        (np.array([0.5, 1.5]), 0.0),
    ])
    def test_array_with_a_nonpositive_rate_error(self, r1, r2):
        with pytest.raises(DegenerateRateError):
            ts_rate_two(r1, r2)


class TestTsRateN:
    def test_symmetric_three(self):
        assert ts_rate_n([1.0, 1.0, 1.0]) == pytest.approx(1.0 / 3.0)

    def test_harmonic_identity(self):
        assert ts_rate_n([2.0, 3.0, 6.0]) == pytest.approx(1.0)

    def test_weighted(self):
        assert ts_rate_n([2.0, 3.0], weights=[1, 4]) == pytest.approx(6.0 / 11.0)

    def test_weighted_matches_search_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(2, 6)
            rates = rng.uniform(0.2, 4.0, n)
            weights = rng.integers(1, 5, n)
            ours = ts_rate_n(rates, weights)
            oracle = ts_common_rate_search(rates, weights)
            assert ours == pytest.approx(oracle, rel=1e-6)

    def test_two_receivers_match_ts_rate_two(self):
        # the harmonic form rounds differently from ts_rate_two's product
        # form: ts_rate_n([2, 3]) is 1.2000000000000002
        for r1, r2 in [(2.0, 3.0), (0.5, 0.5), (1.8, 3.6)]:
            assert ts_rate_n([r1, r2]) == pytest.approx(ts_rate_two(r1, r2), rel=1e-15)

    def test_allocation_contract(self):
        # the time fractions w_j * R / R_j of the common rate R fill the time
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = rng.integers(2, 8)
            rates = rng.uniform(0.1, 5.0, n)
            weights = rng.integers(1, 6, n)
            rate = ts_rate_n(rates, weights)
            assert sum(w * rate / r for r, w in zip(rates, weights)) == pytest.approx(
                1.0, abs=1e-12)

    def test_zero_rate_flagged(self):
        with pytest.raises(DegenerateRateError):
            ts_rate_n([0.0, 0.0])
        with pytest.raises(DegenerateRateError):
            ts_rate_n([[1.0, 2.0], [0.0, 0.0]])

    def test_zero_rate_left_out(self):
        assert ts_rate_n([2.0, 0.0, 3.0]) == ts_rate_n([2.0, 3.0])
        assert ts_rate_n([0.0, 2.0, 3.0], [5, 1, 2]) == ts_rate_n([2.0, 3.0], [1, 2])

    def test_rows_match_left_to_right_sums(self):
        rng = np.random.default_rng(21)
        rates = rng.uniform(0.1, 5.0, (40, 9))
        rates[rng.random(rates.shape) < 0.3] = 0.0
        rates[:, 0] = 0.5  # every row has a positive rate
        weights = rng.integers(1, 5, rates.shape)
        got = ts_rate_n(rates, weights)
        assert got.shape == (40,)
        for row, w, value in zip(rates.tolist(), weights.tolist(), got.tolist()):
            total = 0.0
            for r, wi in zip(row, w):
                if r > 0:
                    total += wi / r
            assert value == 1.0 / total
        # one weight row broadcasts over every rate row
        assert ts_rate_n(rates, weights[0]).tolist() == [
            ts_rate_n(row, weights[0]) for row in rates
        ]

    @pytest.mark.parametrize("bad", [float("nan"), -1.0, float("inf")])
    def test_bad_rates(self, bad):
        with pytest.raises(ParameterError):
            ts_rate_n([2.0, bad, 3.0])

    def test_bad_weights(self):
        with pytest.raises(ParameterError):
            ts_rate_n([2.0, 3.0], weights=[1, 0])
        with pytest.raises(ParameterError):
            ts_rate_n([2.0, 3.0], weights=[1, 1.5])


class TestOperatingPoints:
    def test_classical_points_at_7_10(self, table):
        points = operating_points(7.0, 10.0, table)
        coords = {(p.r1, p.r2) for p in points}
        assert (2.0, 0.0) in coords
        assert (0.0, 3.0) in coords

    def test_below_all_thresholds(self, table):
        points = operating_points(-5.0, -5.0, table)
        assert all(p.r1 == 0.0 and p.r2 == 0.0 for p in points)
        assert len(points) == 2  # only the degenerate classical points

    def test_hierarchical_point_exists(self, table):
        points = operating_points(7.0, 10.0, table)
        assert any(p.r1 > 0 and p.r2 > 0 for p in points)
        # golden from the shipped estimated thresholds
        coords = {(round(p.r1, 6), round(p.r2, 6)) for p in points}
        assert (round(4.0 / 3.0, 6), 1.2) in coords

    def test_canonicalises_order(self, table):
        a = operating_points(10.0, 7.0, table)
        b = operating_points(7.0, 10.0, table)
        assert [(p.r1, p.r2) for p in a] == [(p.r1, p.r2) for p in b]


class TestEqualRatePoint:
    def test_pure_time_sharing(self):
        points = [RatePair(2.0, 0.0), RatePair(0.0, 3.0)]
        assert equal_rate_point(points) == pytest.approx(1.2, abs=1e-12)

    def test_diagonal_point_dominates(self):
        points = [RatePair(2.0, 0.0), RatePair(0.0, 3.0), RatePair(1.5, 1.5)]
        assert equal_rate_point(points) == pytest.approx(1.5, abs=1e-12)

    def test_segment_crossing(self):
        points = [RatePair(2.0, 0.0), RatePair(1.4, 1.8), RatePair(0.0, 3.0)]
        assert equal_rate_point(points) == pytest.approx(1.5, abs=1e-12)

    def test_degenerate_sides(self):
        with pytest.raises(DegenerateRateError):
            equal_rate_point([RatePair(0.0, 3.0)])
        with pytest.raises(DegenerateRateError):
            equal_rate_point([RatePair(2.0, 0.0), RatePair(1.0, 0.0)])

    def test_matches_exhaustive_oracle_random(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = rng.integers(1, 12)
            pts = [RatePair(x, y) for x, y in rng.uniform(0.0, 4.0, (n, 2))]
            pts.append(RatePair(rng.uniform(0.1, 4.0), 0.0))
            pts.append(RatePair(0.0, rng.uniform(0.1, 4.0)))
            ours = equal_rate_point(pts)
            oracle = max_min_rate_exhaustive([(p.r1, p.r2) for p in pts])
            assert ours == pytest.approx(oracle, abs=1e-9)

    @given(
        base=st.lists(
            st.tuples(
                st.floats(0.1, 5.0, allow_nan=False),
                st.floats(0.1, 5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        shrink=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_dominated_points(self, base, shrink):
        points = [RatePair(x, y) for x, y in base]
        before = equal_rate_point(points)
        x0, y0 = base[0]
        dominated = RatePair(x0 * shrink, y0 * shrink)
        assert equal_rate_point(points + [dominated]) == pytest.approx(
            before, abs=1e-12
        )

    @given(
        base=st.lists(
            st.tuples(
                st.floats(0.1, 5.0, allow_nan=False),
                st.floats(0.1, 5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=6,
        ),
        scale=st.floats(0.1, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_invariance(self, base, scale):
        points = [RatePair(x, y) for x, y in base]
        scaled = [RatePair(scale * x, scale * y) for x, y in base]
        assert equal_rate_point(scaled) == pytest.approx(
            scale * equal_rate_point(points), rel=1e-9
        )

    def test_weighted_reduces_to_harmonic(self):
        # classical axis points only: the weighted intersection must match
        # the weighted two-terminal time sharing
        points = [RatePair(2.0, 0.0), RatePair(0.0, 3.6)]
        r = max_min_weighted(points, 1, 4)
        assert r == pytest.approx(1.0 / (1.0 / 2.0 + 4.0 / 3.6), abs=1e-12)


class TestConvexHull:
    def test_collinear_and_duplicates(self):
        hull = convex_hull([(0, 0), (1, 1), (2, 2), (1, 1), (0, 2), (2, 0)])
        assert set(hull) == {(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)}

    def test_small_inputs(self):
        assert convex_hull([(1, 2)]) == [(1.0, 2.0)]
        assert convex_hull([(1, 2), (3, 4)]) == [(1.0, 2.0), (3.0, 4.0)]


class TestPairGain:
    def test_7_10_positive(self, table):
        gain = pair_gain(7.0, 10.0, table)
        assert gain == pytest.approx(0.0714, abs=0.01)

    def test_no_hierarchical_help_at_equal_low_snr(self, table):
        assert pair_gain(-2.0, -2.0, table) == pytest.approx(0.0, abs=1e-12)

    def test_grows_with_snr_gap(self, table):
        assert pair_gain(4.0, 12.0, table) > pair_gain(4.0, 5.0, table)

    def test_degenerate(self, table):
        with pytest.raises(DegenerateRateError):
            pair_gain(-5.0, 10.0, table)

    def test_hierarchical_gain_clamp_and_invariant(self):
        assert hierarchical_gain(1.0 - 1e-12, 1.0) == 0.0
        with pytest.raises(InvariantError, match="below the classical rate"):
            hierarchical_gain(0.9, 1.0)

    def test_hierarchical_gain_float_in_float_out(self):
        for hier, classical in [(1.0 - 1e-12, 1.0), (1.0, 1.0), (1.3, 1.2), (2.0, 1.125)]:
            gain = hierarchical_gain(hier, classical)
            assert type(gain) is float
            assert gain == max(hier / classical - 1.0, 0.0)

    def test_hierarchical_gain_clamps_each_element(self):
        hier = np.array([1.0 - 1e-12, 1.0, 1.3, 2.0, 1.2])
        classical = np.array([1.0, 1.0, 1.2, 1.125, 1.2 + 1e-13])
        gain = hierarchical_gain(hier, classical)
        assert isinstance(gain, np.ndarray) and gain.shape == (5,)
        pairs = zip(hier.tolist(), classical.tolist())
        assert gain.tolist() == [hierarchical_gain(h, c) for h, c in pairs]
        assert gain[0] == gain[1] == gain[4] == 0.0 and (gain >= 0.0).all()
        by_scalar = hierarchical_gain(hier, 1.0)
        assert by_scalar.tolist() == [hierarchical_gain(h, 1.0) for h in hier.tolist()]

    def test_hierarchical_gain_invariant_on_any_element(self):
        with pytest.raises(InvariantError, match="below the classical rate"):
            hierarchical_gain(np.array([1.0, 1.5, 0.9, 1.2]), np.array([1.0, 1.0, 1.0, 1.0]))
        # a loss within rounding is clamped, not raised
        assert hierarchical_gain(np.array([1.0 - 1e-10]), 1.0).tolist() == [0.0]

    def test_hierarchical_gain_empty(self):
        gain = hierarchical_gain(np.array([]), np.array([]))
        assert isinstance(gain, np.ndarray) and gain.shape == (0,)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.1, 6.0), st.floats(0.0, 0.5)), max_size=20))
    def test_hierarchical_gain_array_equals_scalar(self, rows):
        # pair rates at or above the classical rate, up to rounding
        classical = [c for c, _ in rows]
        hier = [c * (1.0 + g) for c, g in rows]
        gain = hierarchical_gain(np.array(hier), np.array(classical))
        assert gain.tolist() == [hierarchical_gain(h, c) for h, c in zip(hier, classical)]

    def test_nonnegative_on_grid(self, table):
        for s1 in np.arange(4.0, 12.1, 1.0):
            for s2 in np.arange(s1, 12.1, 1.0):
                assert pair_gain(s1, s2, table) >= 0.0
