"""Grouping strategy tests against enumeration oracles."""

import math
from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmts import pairing, sim
from hmts.capacity import default_table
from hmts.errors import ParameterError
from hmts.pairing import (
    STRATEGIES,
    PairingPlan,
    pair_positions,
    pairs_b,
    pairs_c,
    run_strategy,
)

from oracles import (
    all_matchings,
    brute_force_matching,
    check_even_list,
    delta_upper_bound,
    matching_delta,
    plan_from_pairs_list,
    run_strategy_list,
    strategy_b_allpairs,
    strategy_b_heap,
)


# a test run once per strategy keeps its case ids, strategy_a to strategy_d
STRATEGY_IDS = [f"strategy_{name.lower()}" for name in "ABCD"]


def random_instances(rng, count, sizes=(4, 6, 8)):
    for _ in range(count):
        n = int(rng.choice(sizes))
        yield list(rng.uniform(0.0, 20.0, n))


class TestStrategyA:
    def test_two_level_instance(self):
        plan = run_strategy("A", [4.0, 4.0, 12.0, 12.0])
        assert plan.delta_avg == 8.0
        assert plan.delta_variance == 0.0
        assert all(
            {4.0, 12.0} == {4.0 if i < 2 else 12.0, 4.0 if j < 2 else 12.0}
            for i, j in plan.pairs
        )

    def test_staircase(self):
        plan = run_strategy("A", [3.0, 4.0, 5.0, 6.0])
        assert plan.delta_avg == 2.0

    def test_matches_brute_force_max(self):
        rng = np.random.default_rng(31)
        for snrs in random_instances(rng, 40):
            assert run_strategy("A", snrs).delta_avg == pytest.approx(
                brute_force_matching(snrs, "max").delta_avg, abs=1e-12
            )

    def test_odd_count_rejected(self):
        with pytest.raises(ParameterError):
            run_strategy("A", [1.0, 2.0, 3.0])


@pytest.mark.parametrize("strategy", "ABCD", ids=STRATEGY_IDS)
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_snrs_rejected(strategy, bad):
    with pytest.raises(ParameterError, match="finite"):
        run_strategy(strategy, [bad, 1.0, 2.0, 3.0])


@pytest.mark.parametrize("strategy", "ABCD", ids=STRATEGY_IDS)
@pytest.mark.parametrize("snrs", [
    [1e308, -1e308, 0.0, 1.0],  # one difference overflows
    [1.7e308, 0.0, 1.7e308, 0.0],  # each difference finite, their sum not
    [1e200, -1e200, 0.0, 1.0],  # the mean finite, the variance not
])
def test_overflowing_snr_spread_rejected(strategy, snrs):
    with pytest.raises(ParameterError, match="finite"):
        run_strategy(strategy, snrs)


@pytest.mark.parametrize("strategy", "ABCD", ids=STRATEGY_IDS)
def test_wide_finite_spread_accepted(strategy):
    plan = run_strategy(strategy, [1e150, -1e150, 0.0, 1.0])
    assert math.isfinite(plan.delta_avg) and math.isfinite(plan.delta_variance)


class TestStrategyB:
    def test_unique_optimum(self):
        plan = run_strategy("B", [4.0, 4.0, 12.0, 12.0])
        assert plan.delta_avg == 8.0
        assert plan.delta_variance == 0.0

    def test_low_variance_instance(self):
        # delta_max = 2 with pairs (0,2),(2,4); strategy A pairs (0,4),(2,2)
        b = run_strategy("B", [0.0, 2.0, 2.0, 4.0])
        a = run_strategy("A", [0.0, 2.0, 2.0, 4.0])
        assert a.delta_avg == 2.0
        assert a.delta_variance == pytest.approx(4.0)
        assert b.delta_avg == 2.0
        assert b.delta_variance == 0.0
        diffs = sorted(abs(s[0] - s[1]) for s in [(0.0, 2.0), (2.0, 4.0)])
        got = sorted(abs([0.0, 2.0, 2.0, 4.0][i] - [0.0, 2.0, 2.0, 4.0][j]) for i, j in b.pairs)
        assert got == diffs

    def test_all_equal(self):
        plan = run_strategy("B", [5.0] * 6)
        assert plan.delta_avg == 0.0

    def test_variance_not_above_a_on_average(self):
        rng = np.random.default_rng(17)
        var_a, var_b = [], []
        for snrs in random_instances(rng, 100):
            var_a.append(run_strategy("A", snrs).delta_variance)
            var_b.append(run_strategy("B", snrs).delta_variance)
        assert np.mean(var_b) <= np.mean(var_a)


def _even(values):
    return values[: len(values) - len(values) % 2]


# tie-heavy 0.5 dB levels with both signed zeros
TIED = st.sampled_from([0.5 * k for k in range(-3, 5)] + [-0.0])
# wide-spread values, tiny and signed-zero specials
WIDE = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(-1e150, 1e150, allow_nan=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 0.2, 0.3, 1e6, -1e6]),
)
# +-1e150 beside values a few ulps apart: the computed differences
# v[j] - v[i] from a far value to the cluster round to one number, so a
# receiver's candidates below the target come in long runs of equal gap
CLUSTERED = st.one_of(
    st.sampled_from([-1e150, 1e150, -2e150, 3e150]),
    st.integers(-3, 3).map(lambda k: 1.0 + k * 2.0**-52),
    st.integers(-3, 3).map(lambda k: k * 5e-324),
    st.integers(-3, 3).map(lambda k: 2.0**53 + 2.0 * k),  # ulp 2 above 2**53
)


class TestStrategyBMatchesAllPairs:
    """The heap greedy returns exactly the plan of the all-pairs sort."""

    @given(st.lists(st.sampled_from([0.5 * k for k in range(-2, 4)]), min_size=2, max_size=60))
    @settings(max_examples=150, deadline=None)
    def test_tie_heavy_levels(self, snrs):
        snrs = _even(snrs)
        assert run_strategy("B", snrs) == strategy_b_allpairs(snrs)

    @given(st.lists(
        st.one_of(
            st.floats(-1e6, 1e6, allow_nan=False),
            st.floats(-1e150, 1e150, allow_nan=False),
            st.sampled_from([0.0, -0.0, 5e-324, 0.1, 0.2, 0.3, 1e6, -1e6]),
        ),
        min_size=2, max_size=60,
    ))
    @settings(max_examples=150, deadline=None)
    def test_wide_values_and_duplicates(self, snrs):
        snrs = _even(snrs + snrs[: len(snrs) // 2])  # duplicate a prefix
        assert run_strategy("B", snrs) == strategy_b_allpairs(snrs)

    @pytest.mark.parametrize("snrs", [
        [4.0, 12.0],
        [4.0, 4.0, 12.0, 12.0],
        [0.0, 2.0, 2.0, 4.0],
        [5.0] * 6,
        [3.0, 4.0, 5.0, 6.0],
        [-3.0, -3.0, 20.0, 20.0, 8.5, 8.5],
        [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
    ])
    def test_edge_cases(self, snrs):
        assert run_strategy("B", snrs) == strategy_b_allpairs(snrs)

    @given(st.lists(st.one_of(CLUSTERED, CLUSTERED, TIED), min_size=2, max_size=60))
    @example([1e150, 1.0])
    @example([-1e150, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-52, 1e150, 0.0])
    # 1.0 + target rounds down onto 2**53, whose difference from 1.0 is
    # below the target: a split searched on v + target instead of on
    # v[j] - v[i] gives another plan
    @example([2.0**53, 1.0 + 3 * 2.0**-52, 2.0**53, 1.0 + 3 * 2.0**-52, 2.0**53 + 2, 1.0])
    @settings(max_examples=200, deadline=None)
    def test_far_values_beside_clusters(self, snrs):
        snrs = _even(snrs)
        want = strategy_b_allpairs(snrs)
        assert run_strategy("B", snrs) == want
        assert strategy_b_heap(snrs) == want

    def test_seeded_thousand_receivers(self):
        rng = np.random.default_rng(61)
        snrs = [float(s) for s in np.round(rng.normal(9.0, 4.0, 1000), 2)]
        plan = run_strategy("B", snrs)
        reference = strategy_b_allpairs(snrs)
        assert plan.pairs == reference.pairs
        assert plan.delta_avg == reference.delta_avg
        assert plan.delta_variance == reference.delta_variance


def assert_same_plan(got, want):
    assert got.pairs == want.pairs
    assert got.delta_avg == want.delta_avg
    assert got.delta_variance == want.delta_variance


class TestStrategyBMatchesHeap:
    """Strategy B returns the plan of the heap walk set up one receiver at
    a time, at sizes the all-pairs sort cannot reach."""

    @pytest.mark.parametrize("n", [5000, 20000])
    def test_seeded_normal_snrs(self, n):
        snrs = np.random.default_rng(n).normal(9.0, 4.0, n)
        assert_same_plan(run_strategy("B", snrs), strategy_b_heap(snrs))

    def test_homogeneous_sweep_populations(self, monkeypatch):
        # every pool strategy B pairs in the homogeneous_500 sweep, seed 1:
        # the positions the simulation gets make the heap walk's plan
        seen = []

        def both(rows, seeds):
            positions = pairs_b(rows, seeds)
            for v, p in zip(rows, positions):
                seen.append(len(v))
                assert np.all(v[:-1] <= v[1:])  # the cores get sorted SNRs
                assert_same_plan(PairingPlan.from_pairs(v, p), strategy_b_heap(v))
            return positions

        monkeypatch.setitem(pairing.STRATEGIES, "B", both)
        cfg = sim.ScenarioConfig(
            n_receivers=500, n_trials=10, snr_max_grid=(7.0, 10.0, 13.0, 16.0, 18.0),
            strategies=("B",), seed=1,
        )
        sim.run_scenario(cfg, mode="homogeneous")
        assert len(seen) == 50 and min(seen) >= 2


# receiver 1's v[i] + target rounds onto 2.0 (target = 1 + 2**-52),
# whose computed difference from 1.0 falls short of the target: the
# split searchsorted gives is too low
ROUNDED_SUM = [0.0, 1.0, 1.0 + 2.0**-51, 2.0]
# receiver 0's v[i] + target is 3.0 exactly (target = 2**53 + 2), but the
# computed difference 2.5 - v[0] rounds up onto the target: the split
# searchsorted gives is too high
ROUNDED_DIFFERENCE = [-(2.0**53) + 1, 0.0, 2.5, 2.0**53]


class TestStrategyBCheckedSplit:
    """B's set-up takes each receiver's split from ``np.searchsorted`` on
    v[i] + target, checks it on the computed differences and bisects
    only the receivers that fail the check.  On inputs built against
    that check the plan stays the heap walk's."""

    @pytest.mark.parametrize("snrs", [
        pytest.param([7.25] * 10, id="all-equal"),
        pytest.param([4.0] * 7 + [9.5] * 9 + [12.0] * 5 + [-1.0] * 3, id="many-ties"),
        pytest.param(np.round(np.random.default_rng(71).normal(9.0, 4.0, 400), 1).tolist(),
                     id="rounded-0.1dB"),
        pytest.param([4.0, 12.0], id="n=2"),
        pytest.param([3.5, 3.5], id="n=2-tied"),
        pytest.param(ROUNDED_SUM, id="rounded-sum"),
        pytest.param(ROUNDED_DIFFERENCE, id="rounded-difference"),
    ])
    def test_equals_heap(self, snrs):
        assert_same_plan(run_strategy("B", snrs), strategy_b_heap(snrs))

    @given(
        base=st.lists(st.one_of(TIED, CLUSTERED, st.floats(-30.0, 30.0, allow_nan=False)),
                      min_size=2, max_size=20),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_one_ulp_around_v_plus_target(self, base, data):
        # receivers at v[i] + target and one ulp either side of it, for
        # the target of the receivers drawn first; the new receivers
        # move the target a little, so some land just across it
        base = _even(base)
        target = run_strategy("A", base).delta_avg
        snrs = list(base)
        for v in data.draw(st.lists(st.sampled_from(base), min_size=1, max_size=10)):
            at = v + target
            snrs += [math.nextafter(at, -math.inf), at, math.nextafter(at, math.inf)]
        snrs = _even(snrs)
        want = strategy_b_heap(snrs)
        assert_same_plan(run_strategy("B", snrs), want)
        assert_same_plan(strategy_b_allpairs(snrs), want)

    @pytest.mark.parametrize("snrs, receiver", [(ROUNDED_SUM, 1), (ROUNDED_DIFFERENCE, 0)],
                             ids=["rounded-sum", "rounded-difference"])
    def test_failed_check_takes_the_bisection(self, monkeypatch, snrs, receiver):
        searched = []
        bisect_rows = pairing._bisect_rows

        def spy(lo, hi, reached):
            searched.append(np.asarray(lo).tolist())
            return bisect_rows(lo, hi, reached)

        monkeypatch.setattr(pairing, "_bisect_rows", spy)
        assert_same_plan(run_strategy("B", snrs), strategy_b_heap(snrs))
        # the first search is the split's: that receiver alone, from the
        # position after it
        assert searched[0] == [receiver + 1]
        assert_same_plan(run_strategy("B", snrs), strategy_b_allpairs(snrs))


# receiver 2's v[i] - target rounds onto -2.0 (target = 1 + 2**-52),
# whose computed difference from -1.0 falls short of the target: the
# downward search's last partner that reaches the target is too high
ROUNDED_SUM_BELOW = [-2.0, -1.0 - 2.0**-51, -1.0, 0.0]

# values on 0.01, 0.25 and 1 dB steps: rows full of ties
ROUNDED = st.one_of(
    st.integers(-1500, 1500).map(lambda k: k / 100),
    st.integers(-60, 60).map(lambda k: k / 4),
    st.integers(-15, 15).map(float),
)


def assert_rows_equal_references(rows):
    """Strategy B's positions for each row of one batch make the heap
    walk's and the all-pairs sort's plans, mean included."""
    rows = [np.sort(np.asarray(r, dtype=float)) for r in rows]
    positions = pairs_b(rows, [0] * len(rows))
    assert len(positions) == len(rows)
    for v, p in zip(rows, positions):
        # pick order: ascending (closeness, smaller position, larger)
        target = run_strategy("A", v).delta_avg
        keys = list(zip(np.abs((v[p[:, 1]] - v[p[:, 0]]) - target).tolist(), *p.T.tolist()))
        assert keys == sorted(keys) and all(i < j for _, i, j in keys)
        plan = PairingPlan.from_pairs(v, p)
        assert_same_plan(plan, strategy_b_heap(v))
        if len(v) <= 200:
            assert_same_plan(plan, strategy_b_allpairs(v))


class TestStrategyBTwoPhases:
    """B pairs a batch of rows at once: rounds of mutually-best pairs over
    the whole batch, then the heap walk on each row's remaining
    receivers.  Each row gets the plan it gets alone, in pick order."""

    @given(st.lists(st.lists(st.one_of(ROUNDED, TIED), min_size=2, max_size=60),
                    min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_batches_of_rows_of_different_lengths(self, rows):
        assert_rows_equal_references([_even(r) for r in rows])

    @given(st.lists(st.lists(st.one_of(CLUSTERED, WIDE), min_size=2, max_size=40),
                    min_size=1, max_size=4))
    @settings(max_examples=100, deadline=None)
    def test_batches_of_wide_and_clustered_rows(self, rows):
        assert_rows_equal_references([_even(r) for r in rows])

    @pytest.mark.parametrize("seed", range(4))
    def test_rounding_cases_mixed_into_batches(self, seed):
        rng = np.random.default_rng(seed)
        rows = [np.round(rng.normal(9.0, 4.0, 2 * int(rng.integers(1, 31))), 2) for _ in range(5)]
        rows.insert(seed % 5, ROUNDED_SUM)
        rows.insert((seed + 2) % 7, ROUNDED_DIFFERENCE)
        rows.insert(seed, ROUNDED_SUM_BELOW)
        assert_rows_equal_references(rows)

    def test_rows_the_rounds_pair_completely(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("the rounds left receivers to walk")

        monkeypatch.setattr(pairing, "_walk", no_walk)
        # [3, 4, 5, 6]: (0, 2) and (1, 3) are both at the target, in one
        # round; [4, 4, 12, 12]: (0, 2) first, then (1, 3) alone
        assert_rows_equal_references([[4.0, 12.0], [3.0, 4.0, 5.0, 6.0], [4.0, 4.0, 12.0, 12.0],
                                      [0.0, 2.0, 2.0, 4.0]])

    def test_sweep_size_rows_take_both_phases(self, monkeypatch):
        walked = []
        walk = pairing._walk

        def spy(v, *args):
            walked.append(len(v))
            return walk(v, *args)

        monkeypatch.setattr(pairing, "_walk", spy)
        rng = np.random.default_rng(83)
        rows = [np.round(rng.normal(9.0, 4.0, n), 2) for n in (500, 60, 2, 500, 498)]
        assert_rows_equal_references(rows)
        # the walk gets part of some rows, none whole
        assert walked and all(0 < w < 500 for w in walked)

    def test_failed_downward_check_takes_the_bisection(self, monkeypatch):
        searched = []
        bisect_rows = pairing._bisect_rows

        def spy(lo, hi, reached):
            searched.append((np.asarray(lo).tolist(), np.asarray(hi).tolist()))
            return bisect_rows(lo, hi, reached)

        monkeypatch.setattr(pairing, "_bisect_rows", spy)
        assert_same_plan(run_strategy("B", ROUNDED_SUM_BELOW), strategy_b_heap(ROUNDED_SUM_BELOW))
        # a round searches the splits above, the runs above, the splits
        # below and the runs below, in that order: the third search is
        # receiver 2's, from the start of the row up to it
        assert searched[2] == ([0], [2])
        assert_same_plan(run_strategy("B", ROUNDED_SUM_BELOW),
                         strategy_b_allpairs(ROUNDED_SUM_BELOW))


def _bisect_rows_reference(values, lo, hi, thresholds):
    return [
        bisect_left(values, True, lo[r], hi[r], key=lambda x, t=t: x >= t)
        for r, t in enumerate(thresholds)
    ]


class TestBisectRows:
    """The row bisection behind strategy B's set-up against bisect_left
    with the same key, row by row."""

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_bisect_left(self, data):
        values = sorted(data.draw(st.lists(st.integers(-5, 5), max_size=30)))
        n = len(values)
        lo = data.draw(st.lists(st.integers(0, n), max_size=20))
        hi = [data.draw(st.integers(start, n)) for start in lo]
        # thresholds beyond the values: a key that is never or always true
        thresholds = data.draw(st.lists(st.integers(-7, 7), min_size=len(lo), max_size=len(lo)))
        v, t = np.array(values, dtype=int), np.array(thresholds, dtype=int)
        got = pairing._bisect_rows(lo, hi, lambda r, m: v[m] >= t[r])
        assert got.tolist() == _bisect_rows_reference(values, lo, hi, thresholds)

    @pytest.mark.parametrize("threshold", [-1, 2, 9])  # always, sometimes, never true
    def test_edge_ranges(self, threshold):
        values = [0, 1, 1, 2, 3, 5]
        n = len(values)
        lo = [0, 0, 3, n, 2, 0, 6]
        hi = [n, 0, 3, n, 5, 1, 6]  # rows 1-3 and 6 are empty ranges
        v = np.array(values)
        got = pairing._bisect_rows(lo, hi, lambda r, m: v[m] >= threshold)
        assert got.tolist() == _bisect_rows_reference(values, lo, hi, [threshold] * len(lo))

    def test_no_rows(self):
        def never_called(rows, m):
            raise AssertionError("no row to search")

        assert pairing._bisect_rows([], [], never_called).tolist() == []
        assert pairing._bisect_rows([2, 4], [2, 4], never_called).tolist() == [2, 4]


class TestMatchesListOracle:
    """The array strategies return the list-based ones' plans exactly."""

    @given(
        snrs=st.lists(st.one_of(TIED, WIDE), min_size=2, max_size=60),
        duplicate=st.booleans(),
        strategy=st.sampled_from("ABCD"),
        seed=st.integers(0, 2**32 - 1),
        as_array=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_strategies(self, snrs, duplicate, strategy, seed, as_array):
        if duplicate:
            snrs = snrs + snrs[: len(snrs) // 2]
        snrs = _even(snrs)[:60]
        want = run_strategy_list(strategy, snrs, seed)
        got = run_strategy(strategy, np.array(snrs) if as_array else snrs, seed)
        assert_same_plan(got, want)

    @given(snrs=st.lists(TIED, min_size=2, max_size=60), seeds=st.lists(
        st.integers(0, 2**32 - 1), min_size=3, max_size=3, unique=True,
    ))
    @settings(max_examples=50, deadline=None)
    def test_strategy_c_seeds(self, snrs, seeds):
        snrs = _even(snrs)
        for seed in seeds:
            assert_same_plan(run_strategy("C", snrs, seed), run_strategy_list("C", snrs, seed))

    @given(snrs=st.lists(st.one_of(TIED, WIDE), min_size=2, max_size=60), data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_from_pairs_on_lists(self, snrs, data):
        snrs = _even(snrs)
        perm = data.draw(st.permutations(range(len(snrs))))
        flips = data.draw(st.lists(st.booleans(), min_size=len(snrs), max_size=len(snrs)))
        pairs = [
            (perm[k + 1], perm[k]) if flips[k] else (perm[k], perm[k + 1])
            for k in range(0, len(snrs), 2)
        ]
        want = plan_from_pairs_list(snrs, pairs)
        assert_same_plan(PairingPlan.from_pairs(snrs, pairs), want)
        assert_same_plan(PairingPlan.from_pairs(np.array(snrs), np.array(pairs)), want)
        assert all(type(i) is int for pair in want.pairs for i in pair)

    def test_variance_squares_as_the_builtin_power(self):
        # the deviations +-1.625 carry rounding error whose square rounds
        # one way under libm's pow (``**`` on floats) and another as a
        # product: the variance is 2.640624999999997, not ...73
        snrs = [11.07, 16.47, 5.79, 7.94]
        want = plan_from_pairs_list(snrs, [(0, 1), (2, 3)])
        assert want.delta_variance == 2.640624999999997
        assert_same_plan(PairingPlan.from_pairs(snrs, [(0, 1), (2, 3)]), want)
        assert_same_plan(run_strategy("D", snrs), run_strategy_list("D", snrs))

    @pytest.mark.parametrize("snrs", [
        [1.0, 2.0, 3.0],
        [1.0],
        [],
        [float("nan"), 1.0, float("inf"), 2.0],
        [1e308, -1e308, 0.0, 1.0],
        [1e200, -1e200, 0.0, 1.0],
    ])
    def test_same_rejections(self, snrs):
        with pytest.raises(ParameterError) as want:
            check_even_list(snrs)
        for strategy in "ABCD":
            with pytest.raises(ParameterError) as got:
                run_strategy(strategy, snrs)
            assert str(got.value) == str(want.value)


class TestStrategyC:
    def test_deterministic_per_seed(self):
        snrs = list(np.random.default_rng(0).uniform(0, 15, 10))
        assert run_strategy("C", snrs, seed=7) == run_strategy("C", snrs, seed=7)

    def test_two_receivers(self):
        plan = run_strategy("C", [4.0, 12.0], seed=1)
        assert plan.pairs == ((0, 1),)
        assert plan.delta_avg == 8.0

    def test_uniform_over_matchings(self):
        snrs = [1.0, 2.0, 4.0, 8.0]
        counts = {}
        for seed in range(10000):
            plan = run_strategy("C", snrs, seed=seed)
            counts[plan.pairs] = counts.get(plan.pairs, 0) + 1
        assert len(counts) == 3
        for c in counts.values():
            assert c / 10000 == pytest.approx(1.0 / 3.0, abs=0.02)


class TestStrategyD:
    def test_two_level_instance(self):
        plan = run_strategy("D", [4.0, 4.0, 12.0, 12.0])
        assert plan.delta_avg == 0.0

    def test_staircase(self):
        plan = run_strategy("D", [3.0, 4.0, 5.0, 6.0])
        assert plan.delta_avg == 1.0

    def test_matches_brute_force_min(self):
        rng = np.random.default_rng(37)
        for snrs in random_instances(rng, 40):
            assert run_strategy("D", snrs).delta_avg == pytest.approx(
                brute_force_matching(snrs, "min").delta_avg, abs=1e-12
            )


class TestDeltaUpperBound:
    def test_two_levels(self):
        assert delta_upper_bound({4.0: 2, 12.0: 2}) == 8.0

    def test_single_level(self):
        assert delta_upper_bound({9.0: 6}) == 0.0

    def test_staircase_histogram(self):
        assert delta_upper_bound({0.0: 1, 1.0: 1, 2.0: 1, 3.0: 1}) == 2.0

    def test_accepts_pairs_iterable(self):
        assert delta_upper_bound([(4.0, 2), (12.0, 2)]) == 8.0

    def test_equals_strategy_a(self):
        rng = np.random.default_rng(41)
        for snrs in random_instances(rng, 50):
            levels = {}
            for s in snrs:
                levels[s] = levels.get(s, 0) + 1
            assert delta_upper_bound(levels) == pytest.approx(
                run_strategy("A", snrs).delta_avg, abs=1e-12
            )

    def test_odd_total_rejected(self):
        with pytest.raises(ParameterError):
            delta_upper_bound({4.0: 3})


class TestBruteForce:
    def test_small_instance(self):
        plan = brute_force_matching([4.0, 4.0, 12.0, 12.0], "max")
        assert plan.delta_avg == 8.0

    def test_matches_independent_enumeration(self):
        rng = np.random.default_rng(43)
        snrs = list(rng.uniform(0, 20, 6))
        expected_max = max(matching_delta(snrs, m) for m in all_matchings(6))
        expected_min = min(matching_delta(snrs, m) for m in all_matchings(6))
        assert brute_force_matching(snrs, "max").delta_avg == pytest.approx(expected_max)
        assert brute_force_matching(snrs, "min").delta_avg == pytest.approx(expected_min)

    def test_dominates_all_strategies(self):
        rng = np.random.default_rng(47)
        for snrs in random_instances(rng, 20):
            top = brute_force_matching(snrs, "max").delta_avg
            for name in "ABD":
                assert run_strategy(name, snrs).delta_avg <= top + 1e-12
            assert run_strategy("C", snrs, seed=3).delta_avg <= top + 1e-12

    def test_bad_objective(self):
        with pytest.raises(ParameterError):
            brute_force_matching([1.0, 2.0], "median")


class TestRunStrategy:
    def test_seed_reaches_only_strategy_c(self):
        snrs = [float(v) for v in (3, 9, 0, 7, 1, 8, 2, 6, 5, 4)]
        v = np.sort(snrs)
        order = np.argsort(snrs, kind="stable")
        want = PairingPlan.from_pairs(snrs, order[pairs_c([v], [7])[0]])
        assert run_strategy("C", snrs, seed=7) == want
        assert run_strategy("C", snrs, seed=7) != run_strategy("C", snrs, seed=8)
        assert np.array_equal(pair_positions("C", [v], [7])[0], pairs_c([v], [7])[0])
        assert not np.array_equal(pair_positions("C", [v], [7])[0], pair_positions("C", [v], [8])[0])
        for name in "ABD":
            positions = STRATEGIES[name]([v], [8])[0]
            assert np.array_equal(pair_positions(name, [v], [7])[0], positions)
            assert run_strategy(name, snrs, seed=7) == PairingPlan.from_pairs(snrs, order[positions])

    def test_strategy_looked_up_at_call_time(self, monkeypatch):
        calls = []

        def fake(rows, seeds):
            calls.extend(seeds)
            return pairs_c(rows, seeds)

        monkeypatch.setitem(pairing.STRATEGIES, "C", fake)
        run_strategy("C", [1.0, 2.0], seed=4)
        pair_positions("C", [np.array([1.0, 2.0])], [5])
        sim.run_trial([7.0, 10.0], [1, 1], "C", default_table(), seed=6)
        assert calls == [4, 5, 6]

    def test_unknown_strategy_in_run_strategy(self):
        with pytest.raises(ParameterError, match="unknown strategy 'E'"):
            run_strategy("E", [1.0, 2.0])

    def test_unknown_strategy_in_pair_positions(self):
        with pytest.raises(ParameterError, match="unknown strategy 'E'"):
            pair_positions("E", [np.array([1.0, 2.0])], [0])

    @pytest.mark.parametrize("name", "ABCD")
    def test_cores_return_a_perfect_matching_of_positions(self, name):
        v = np.sort(np.random.default_rng(5).normal(9.0, 4.0, 40))
        positions, = pair_positions(name, [v], [3])
        assert positions.shape == (20, 2) and positions.dtype.kind == "i"
        assert sorted(positions.ravel().tolist()) == list(range(40))


class TestPlanInvariants:
    @given(
        snrs=st.lists(st.floats(0.0, 20.0, allow_nan=False), min_size=4, max_size=8),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_perfect_matching_and_permutation_invariance(self, snrs, seed):
        if len(snrs) % 2:
            snrs = snrs[:-1]
        rng = np.random.default_rng(seed)
        perm = list(rng.permutation(len(snrs)))
        shuffled = [snrs[p] for p in perm]
        for name in "ABD":
            plan = run_strategy(name, snrs)
            flat = [i for pair in plan.pairs for i in pair]
            assert sorted(flat) == list(range(len(snrs)))
            assert run_strategy(name, shuffled).delta_avg == pytest.approx(
                plan.delta_avg, abs=1e-9
            )
        plan_c = run_strategy("C", snrs, seed=5)
        flat = [i for pair in plan_c.pairs for i in pair]
        assert sorted(flat) == list(range(len(snrs)))
        assert run_strategy("C", shuffled, seed=5).delta_avg == pytest.approx(
            plan_c.delta_avg, abs=1e-9
        )

    def test_expected_ordering_a_c_d(self):
        rng = np.random.default_rng(53)
        d_a, d_c, d_d = [], [], []
        for k, snrs in enumerate(random_instances(rng, 120)):
            d_a.append(run_strategy("A", snrs).delta_avg)
            d_c.append(run_strategy("C", snrs, seed=k).delta_avg)
            d_d.append(run_strategy("D", snrs).delta_avg)
        assert np.mean(d_a) >= np.mean(d_c) >= np.mean(d_d)

    def test_delta_stat_consistency(self):
        plan = PairingPlan.from_pairs([1.0, 5.0, 2.0, 9.0], [(0, 1), (2, 3)])
        assert plan.delta_avg == pytest.approx((4.0 + 7.0) / 2.0, abs=1e-12)
        assert plan.delta_variance == pytest.approx(2.25)
