"""Trial and scenario harness tests."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmts.capacity import DVBS2_CODE_RATES, ModCod, ThresholdTable, default_table
from hmts.channel import BeamConfig, default_weather_cdf, generate_population
from hmts.errors import DegenerateRateError, ParameterError
from hmts.pairing import pairs_a, pairs_b, pairs_d
from hmts.rates import RatePair, max_min_weighted, operating_points, pair_gain
from hmts.sim import (
    GainRecord,
    GainReport,
    PairRateCache,
    ScenarioConfig,
    _by_smaller,
    _max_min_rates,
    _run_trials,
    run_scenario,
    run_trial,
    summarize,
)

from oracles import (
    PairRateCacheScalar,
    best_single_rate,
    max_min_rate_exhaustive,
    run_trial_scalar,
)


@pytest.fixture(scope="module")
def table():
    return default_table()


@pytest.fixture(scope="module")
def cache(table):
    return PairRateCache(table)


def bucket_snrs(table):
    """One SNR in each threshold bucket: below the lowest threshold,
    then each threshold itself."""
    breaks = sorted({e.threshold_db for e in table.entries})
    return np.array([breaks[0] - 1.0, *breaks])


def assert_table_equals_scalar(table, weight_pairs):
    """Every bucket pair's rate equals the scalar cache's, exactly."""
    snrs = bucket_snrs(table)
    i, j = np.triu_indices(len(snrs))
    cache, oracle = PairRateCache(table), PairRateCacheScalar(table)
    for w1, w2 in weight_pairs:
        got = cache.pair_rate(snrs[i], snrs[j], w1, w2).tolist()
        want = [oracle.pair_rate(snrs[a], snrs[b], w1, w2) for a, b in zip(i, j)]
        assert got == want, (w1, w2)
    assert cache.best_single_rate(snrs).tolist() == [oracle.best_single_rate(s) for s in snrs]


class TestPairRateCache:
    def test_matches_direct_computation(self, table, cache):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s1, s2 = sorted(rng.uniform(-3.0, 16.0, 2))
            w1, w2 = rng.integers(1, 4, 2)
            direct = max_min_weighted(
                operating_points(s1, s2, table), int(w1), int(w2)
            )
            assert cache.pair_rate(s1, s2, int(w1), int(w2)) == direct

    def test_order_canonicalisation(self, table, cache):
        a = cache.pair_rate(7.0, 10.0, 2, 1)
        b = cache.pair_rate(10.0, 7.0, 1, 2)
        assert a == b
        # within one bucket the SNRs, not the buckets, say which is worse
        oracle = PairRateCacheScalar(table)
        assert cache._buckets(7.1) == cache._buckets(7.15)
        for s1, s2 in ((7.15, 7.1), (7.1, 7.15)):
            assert cache.pair_rate(s1, s2, 2, 1) == oracle.pair_rate(s1, s2, 2, 1)
        assert cache.pair_rate(7.15, 7.1, 2, 1) != cache.pair_rate(7.1, 7.15, 2, 1)

    def test_single_rate_matches_table(self, table, cache):
        for snr in np.linspace(-4.0, 16.0, 100):
            assert cache.best_single_rate(snr) == best_single_rate(table, snr)


    def test_nan_rejected_without_poisoning(self, table):
        fresh = PairRateCache(table)
        with pytest.raises(ParameterError):
            fresh.best_single_rate(float("nan"))
        with pytest.raises(ParameterError):
            fresh.pair_rate(10.0, float("nan"))
        # a refused NaN files nothing into the top bucket
        assert fresh.best_single_rate(20.0) == 3.6

    # the presets' rho set keeps the whole shipped table; the one-rho and
    # two-rho subsets are those of other scenarios
    @pytest.mark.parametrize("rho_set", [
        ScenarioConfig().rho_set, (0.75,), (0.9,), (0.8, 0.85),
    ], ids=["presets", "rho0.75", "rho0.9", "rho0.8+0.85"])
    def test_every_bucket_pair_equals_scalar_cache(self, table, rho_set):
        weight_pairs = list(itertools.product((1, 2, 3), repeat=2))
        if rho_set == ScenarioConfig().rho_set:
            # a max over all chords is one ulp off in 188 pairs at (1, 5)
            weight_pairs.append((1, 5))
        assert_table_equals_scalar(table.filter_rho(rho_set), weight_pairs)

    def test_collinear_point_takes_the_hull_edge(self):
        # (1.8, 1.6) lies on the hull edge (3, 0)-(5/3, 16/9); the hull
        # drops it, and the sub-edge from it crosses the diagonal one ulp
        # higher than the whole edge does
        for snr_hi_single in (2.0, 3.0, 3.6):
            points = [RatePair(3.0, 0.0), RatePair(0.0, snr_hi_single),
                      RatePair(5 / 3, 16 / 9), RatePair(1.8, 1.6)]
            got = _max_min_rates(np.array([[3.0, 5 / 3, 1.8]]),
                                 np.array([[snr_hi_single, 16 / 9, 1.6]]))
            assert got.tolist() == [max_min_weighted(points)]
            assert max_min_rate_exhaustive(points) != max_min_weighted(points)

    @pytest.mark.parametrize("k", [1, 4, 8])
    def test_random_rows_equal_scalar_walk(self, k):
        # offers on a coarse grid, so points tie, repeat and line up, with
        # up to 8 hierarchical points (the shipped table has 4): each row's
        # chain fits the k + 4 vertices the pass keeps room for
        rng = np.random.default_rng(k)
        lo = rng.integers(0, 7, (400, k + 1)) / 3
        hi = rng.integers(0, 7, (400, k + 1)) / 3
        got = _max_min_rates(lo, hi).tolist()
        for row, (a, b) in enumerate(zip(lo.tolist(), hi.tolist())):
            points = [RatePair(a[0], 0.0), RatePair(0.0, b[0])]
            points += [RatePair(x, y) for x, y in zip(a[1:], b[1:]) if x > 0 and y > 0]
            assert got[row] == max_min_weighted(points), row

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_random_tables_equal_scalar_cache(self, data):
        # thresholds on a quarter-dB grid, so buckets and efficiencies tie
        def group(modulation, stream):
            rates = sorted(data.draw(st.sets(st.sampled_from(DVBS2_CODE_RATES), max_size=5)))
            quarters = sorted(data.draw(st.sets(st.integers(-12, 80), min_size=len(rates),
                                                max_size=len(rates))))
            return [ModCod(modulation, r, stream, q / 4) for r, q in zip(rates, quarters)]

        entries = [ModCod("QPSK", Fraction(1, 2), "single", data.draw(st.integers(-4, 8)) / 4)]
        for mod in ("8PSK", "16APSK"):
            entries += group(mod, "single")
        for rho in data.draw(st.sets(st.sampled_from(("0.70", "0.75", "0.80", "0.90")), max_size=3)):
            entries += group(f"H16APSK-{rho}", "HE") + group(f"H16APSK-{rho}", "LE")
        weights = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
        assert_table_equals_scalar(ThresholdTable(entries), [(1, 1), weights])

    def test_arrays_in_arrays_out(self, cache):
        snrs = np.array([[7.0, 10.0], [12.0, -8.0]])
        got = cache.pair_rate(snrs, 9.0, np.array([1, 2]), 1)
        assert got.shape == (2, 2)
        assert got[0, 1] == cache.pair_rate(10.0, 9.0, 2, 1)
        assert cache.best_single_rate(snrs).shape == (2, 2)

    @pytest.mark.parametrize("weight", [0, -1, 1.0, 1.5, True, np.array([1, 0])])
    def test_weights_must_be_integers_at_least_one(self, cache, weight):
        with pytest.raises(ParameterError, match="weights"):
            cache.pair_rate(np.array([7.0, 8.0]), 10.0, weight, 1)


def assert_trial_matches_scalar(snrs, weights, strategy, seed=0):
    """run_trial on arrays returns the scalar reference's tuple exactly,
    or raises its DegenerateRateError with the same receivers."""
    table = default_table()
    try:
        want = run_trial_scalar(snrs, weights, strategy, table, seed=seed)
    except DegenerateRateError as exc:
        with pytest.raises(DegenerateRateError) as err:
            run_trial(snrs, weights, strategy, table, seed=seed)
        assert err.value.receivers == exc.receivers
        return None
    got = run_trial(np.array(snrs), np.array(weights), strategy, table, seed=seed)
    assert got == want
    return got


class TestRunTrial:
    def test_two_receiver_pair_reproduces_pair_gain(self, table, cache):
        classical, hier, gain, excluded = run_trial([7.0, 10.0], [1, 1], "A", cache)
        assert excluded == ()
        assert classical == pytest.approx(1.2)
        assert gain == pytest.approx(pair_gain(7.0, 10.0, table), abs=1e-12)

    def test_homogeneous_reduces_to_pair_gain(self, table, cache):
        s = 9.0
        _, _, gain, _ = run_trial([s] * 6, [1] * 6, "D", cache)
        assert gain == pytest.approx(pair_gain(s, s, table), abs=1e-12)

    def test_four_receiver_strategies(self, cache):
        snrs, weights = [4.0, 4.0, 12.0, 12.0], [1] * 4
        _, _, gain_a, _ = run_trial(snrs, weights, "A", cache)
        _, _, gain_d, _ = run_trial(snrs, weights, "D", cache)
        assert gain_a == pytest.approx(0.20, abs=0.05)
        assert gain_d == pytest.approx(0.0, abs=0.05)

    def test_undecodable_receivers_excluded(self, cache):
        classical, hier, gain, excluded = run_trial([-8.0, 7.0, 10.0, 12.0], [1] * 4, "A", cache)
        assert excluded == (0,)
        assert gain >= 0.0

    def test_odd_after_exclusion_keeps_all_served(self, cache):
        # exclusion leaves 3 receivers: one is served solo, none dropped
        classical, hier, gain, excluded = run_trial([-8.0, 6.0, 9.0, 12.0], [1] * 4, "A", cache)
        assert excluded == (0,)
        assert hier >= classical
        assert_trial_matches_scalar([-8.0, 6.0, 9.0, 12.0], [1, 2, 1, 3], "A")

    def test_all_undecodable(self, cache):
        with pytest.raises(DegenerateRateError) as err:
            run_trial([-8.0, -9.0], [1, 1], "A", cache)
        assert err.value.receivers == (0, 1)
        assert_trial_matches_scalar([-8.0, -9.0, -1e3], [1, 2, 1], "B")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_snr_rejected_before_lookup(self, table, bad):
        fresh = PairRateCache(table)
        with pytest.raises(ParameterError, match="finite"):
            run_trial([bad, 20.0, 8.0, 9.0], [1] * 4, "A", fresh)
        # nothing was filed into a bucket on the way
        assert fresh.best_single_rate(20.0) == 3.6
        assert run_trial([20.0, 8.0], [1, 1], "A", fresh)[2] >= 0.0

    @pytest.mark.parametrize("weights", [[1, 0], [1, -2], [1.0, 1.0], [1, 1.5], [True, True], [1]])
    def test_bad_weights_rejected(self, cache, weights):
        with pytest.raises(ParameterError):
            run_trial([7.0, 10.0], weights, "A", cache)

    def test_unknown_strategy(self, cache):
        with pytest.raises(ParameterError):
            run_trial([7.0, 10.0], [1, 1], "E", cache)

    def test_gain_nonnegative_random(self, cache):
        rng = np.random.default_rng(29)
        for _ in range(30):
            snrs = rng.uniform(3.0, 15.0, 20)
            for strat in "ABCD":
                _, _, gain, _ = run_trial(snrs, np.ones(20, dtype=int), strat, cache, seed=1)
                assert gain >= 0.0

    def test_extreme_snrs_and_weights_match_scalar(self):
        assert_trial_matches_scalar([1e3, -1e3, 7.0, 1e3, 12.0], [1, 1, 2, 3, 1], "A")
        for strategy in "ABCD":
            assert_trial_matches_scalar([-1e3, 1e3, 1e3, 5.0], [2, 2, 1, 1], strategy, seed=3)

    def test_population_trials_match_scalar(self):
        # 500 receivers: enough pairs that a pairwise sum would differ
        weather = default_weather_cdf()
        for snr_max, share, weight in ((7.0, 0.0, 1), (13.0, 0.3, 2), (18.0, 0.5, 3)):
            population = generate_population(
                500, snr_max, BeamConfig(), weather,
                professional_share=share, professional_weight=weight, seed=11,
            )
            for strategy in "ABCD":
                assert_trial_matches_scalar(
                    population.snr_db, population.weight, strategy, seed=5
                )

    @settings(max_examples=60, deadline=None)
    @given(
        snrs=st.lists(
            st.one_of(st.floats(-4.0, 22.0), st.sampled_from([-1e3, 1e3, -2.35, 9.97])),
            min_size=1, max_size=30,
        ),
        data=st.data(),
        strategy=st.sampled_from("ABCD"),
        seed=st.integers(0, 3),
    )
    def test_matches_scalar_trial(self, snrs, data, strategy, seed):
        weights = data.draw(st.lists(st.integers(1, 3), min_size=len(snrs), max_size=len(snrs)))
        assert_trial_matches_scalar(snrs, weights, strategy, seed)


def drawn_population(seed, n_active, n_excluded, weight_max, step_db):
    """Shuffled SNRs and weights: ``n_active`` receivers between -2 and
    16 dB (on a ``step_db`` grid, so that they tie, unless it is 0) and
    ``n_excluded`` below every threshold of the shipped table."""
    rng = np.random.default_rng(seed)
    active = rng.uniform(-2.0, 16.0, n_active)
    if step_db:
        active = np.round(active / step_db) * step_db
    snrs = np.concatenate((active, rng.uniform(-9.0, -4.0, n_excluded)))
    order = rng.permutation(len(snrs))
    return snrs[order], rng.integers(1, weight_max + 1, len(snrs))


class TestSharedTrial:
    """One pass over a population for all strategies gives each
    strategy's scalar reference trial, and run_trial one at a time."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_active=st.integers(1, 41),
        n_excluded=st.integers(0, 4),
        weight_max=st.integers(1, 3),
        step_db=st.sampled_from([0.0, 0.1, 0.5, 2.0]),
        strategy_seed=st.integers(0, 3),
    )
    # an odd active count (a solo receiver), excluded receivers, weights
    # above 1 and tied SNRs, all at once
    @example(seed=4, n_active=25, n_excluded=3, weight_max=3, step_db=0.5, strategy_seed=1)
    def test_equals_scalar_trials(self, table, cache, seed, n_active, n_excluded,
                                  weight_max, step_db, strategy_seed):
        snrs, weights = drawn_population(seed, n_active, n_excluded, weight_max, step_db)
        got = _run_trials(snrs, weights, tuple("ABCD"), cache, strategy_seed)
        assert got == [run_trial_scalar(snrs, weights, s, table, seed=strategy_seed)
                       for s in "ABCD"]
        assert got == [run_trial(snrs, weights, s, cache, seed=strategy_seed) for s in "ABCD"]
        # a subset, in another order, gives the same tuples
        assert _run_trials(snrs, weights, ("D", "B"), cache, strategy_seed) == [got[3], got[1]]

    def test_example_covers_each_case(self):
        snrs, weights = drawn_population(4, 25, 3, 3, 0.5)
        decodes = snrs > -3.0
        assert decodes.sum() % 2 == 1 and (~decodes).sum() == 3
        assert weights.max() > 1 and len(set(snrs[decodes].tolist())) < decodes.sum()

    def test_population_seed_sequence_reaches_strategy_c(self, table, cache):
        population = generate_population(500, 7.0, BeamConfig(), default_weather_cdf(), seed=3)
        seed = np.random.SeedSequence(8)
        got = _run_trials(population.snr_db, population.weight, tuple("ABCD"), cache, seed)
        for strategy, trial in zip("ABCD", got):
            assert trial == run_trial_scalar(population.snr_db, population.weight,
                                             strategy, table, seed=seed)

    def test_checks_before_any_strategy(self, cache):
        with pytest.raises(ParameterError, match="unknown strategy 'E'"):
            _run_trials([7.0, 10.0], [1, 1], ("A", "E"), cache)
        with pytest.raises(ParameterError, match="finite"):
            _run_trials([1e3, 1e200, 7.0], [1, 1, 1], tuple("ABCD"), cache)


class TestBySmaller:
    @staticmethod
    def by_sorting(pairs):
        rows = np.sort(pairs, axis=1)
        return rows[np.argsort(rows[:, 0])].T

    @pytest.mark.parametrize("n", [2, 4, 10, 500])
    def test_equals_sorting_the_pairs(self, n):
        v = np.sort(np.random.default_rng(n).uniform(0.0, 12.0, n))
        perm = np.random.default_rng(n + 1).permutation(n).reshape(-1, 2)
        # an array already in that order (A's and D's always, others by
        # chance at small n) is returned as it is; the rest is reordered
        for pairs in (pairs_a(v), pairs_d(v), pairs_b(v), perm, pairs_d(v)[:, ::-1],
                      pairs_a(v)[::-1]):
            want = self.by_sorting(pairs)
            got = _by_smaller(pairs)
            assert got.tolist() == want.tolist(), pairs
            assert np.shares_memory(got, pairs) == np.array_equal(pairs.T, want)
        for core in (pairs_a, pairs_d):
            pairs = core(v)
            assert np.shares_memory(_by_smaller(pairs), pairs)


def small_config(**overrides):
    base = dict(
        n_receivers=40,
        n_trials=4,
        snr_max_grid=(8.0, 10.0),
        strategies=("A", "C"),
        professional_share_grid=(0.0, 0.5),
        seed=9,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


class TestRunScenario:
    def test_deterministic_reports(self, tmp_path, table):
        cfg = small_config()
        rep1 = run_scenario(cfg, table=table)
        rep2 = run_scenario(cfg, table=table)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        rep1.to_csv(p1)
        rep2.to_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_gains_nonnegative_and_summary_consistent(self, table):
        rep = run_scenario(small_config(), table=table)
        assert all(r.gain >= 0.0 for r in rep.records)
        for snr, strat, share, mean, lo, hi in rep.summary_rows():
            assert lo <= mean <= hi

    def test_homogeneous_equals_heterogeneous_share_zero(self, table):
        cfg = small_config(professional_share_grid=(0.0,))
        hom = run_scenario(cfg, mode="homogeneous", table=table)
        het = run_scenario(cfg, mode="heterogeneous", table=table)
        assert hom.records == het.records

    def test_report_csv_columns(self, tmp_path, table):
        rep = run_scenario(small_config(), table=table)
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        header = path.read_text().splitlines()[0]
        assert header == "snr_max_db,strategy,share,trial,classical_rate,hier_rate,gain"
        spath = tmp_path / "summary.csv"
        rep.summary_to_csv(spath)
        sheader = spath.read_text().splitlines()[0]
        assert sheader == "snr_max_db,strategy,share,mean_gain,min_gain,max_gain"

    def test_population_dump(self, tmp_path, table):
        cfg = small_config(n_trials=1, snr_max_grid=(10.0,), strategies=("A",))
        run_scenario(cfg, table=table, population_dir=tmp_path)
        dumps = list(tmp_path.glob("population_*.csv"))
        assert len(dumps) == 1

    def test_rho_set_must_match_the_table(self, table):
        with pytest.raises(ParameterError, match=r"rho_set \[0.5\] .*\[0.75, 0.8, 0.85, 0.9\]"):
            run_scenario(small_config(rho_set=(0.5,)), table=table)
        # one matching rho is enough
        rep = run_scenario(small_config(rho_set=(0.5, 0.8), n_trials=1), table=table)
        assert any(r.gain > 0 for r in rep.records)

    def test_rho_off_the_hundredths_rejected(self, table):
        with pytest.raises(ParameterError, match="multiple of 0.01, got 0.803"):
            run_scenario(small_config(rho_set=(0.8, 0.803)), table=table)

    @pytest.mark.parametrize("key, value", [
        ("snr_max_grid", ()), ("snr_max_grid", ("10",)), ("snr_max_grid", (float("nan"),)),
        ("snr_max_grid", 10.0), ("snr_max_grid", (4000.5,)), ("snr_max_grid", (10**400,)),
        ("professional_share_grid", (1.5,)), ("rho_set", (-0.1,)),
        ("professional_share_grid", (False,)), ("professional_share_grid", ()),
        ("rho_set", (-float("inf"),)), ("rho_set", ()), ("rho_set", "0.8"),
        ("snr_max_grid", (10.0, 10)), ("professional_share_grid", (0.5, 0.2, 0.5)),
        ("rho_set", [0.8, np.float64(0.8)]), ("strategies", "AB"), ("strategies", ()),
        ("strategies", ("A", "A")), ("strategies", ("E",)), ("strategies", (["A"],)),
        ("strategies", None),
    ])
    def test_invalid_sweeps(self, key, value):
        with pytest.raises(ParameterError, match=key):
            small_config(**{key: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_invalid_seed(self, seed):
        with pytest.raises(ParameterError, match="seed must be an integer >= 0"):
            small_config(seed=seed)

    def test_sweeps_accept_numpy_and_int_values(self):
        cfg = small_config(snr_max_grid=[np.float64(8.0), 10], rho_set=(np.float32(0.8),))
        assert cfg.snr_max_grid == [8.0, 10]

    def test_invalid_config(self):
        with pytest.raises(ParameterError):
            ScenarioConfig(n_receivers=7)
        with pytest.raises(ParameterError):
            ScenarioConfig(strategies=("A", "X"))
        with pytest.raises(ParameterError):
            ScenarioConfig(n_trials=0)

    def test_rho_subset_changes_hier_rates(self, table):
        cfg_all = small_config(strategies=("A",), snr_max_grid=(10.0,))
        cfg_one = small_config(
            strategies=("A",), snr_max_grid=(10.0,), rho_set=(0.9,)
        )
        rep_all = run_scenario(cfg_all, table=table)
        rep_one = run_scenario(cfg_one, table=table)
        # same populations, fewer hierarchical configurations available
        assert all(
            a.hier_rate >= o.hier_rate - 1e-12
            for a, o in zip(rep_all.records, rep_one.records)
        )


class TestSummarize:
    def test_single_strategy_trivially_consistent(self, table):
        rep = run_scenario(small_config(strategies=("A",)), table=table)
        rows = summarize(rep)
        assert all("A" in row["means"] for row in rows)
        assert not any(">=" in key for row in rows for key in row if key != "means")

    def test_ordering_booleans_present(self, table):
        rep = run_scenario(small_config(strategies=("A", "C")), table=table)
        rows = summarize(rep)
        for row in rows:
            assert "A>=C" in row
            assert isinstance(row["A>=C"], bool)

    def test_mean_matches_records(self, table):
        rep = run_scenario(small_config(strategies=("A",)), table=table)
        gains = rep.gains(8.0, "A", 0.0)
        assert rep.mean_gain(8.0, "A", 0.0) == pytest.approx(
            sum(gains) / len(gains)
        )


class TestGainReport:
    def test_missing_configuration(self, table):
        rep = run_scenario(small_config(strategies=("A",)), table=table)
        with pytest.raises(ParameterError):
            rep.mean_gain(8.0, "D", 0.0)

    def test_summary_rows_group_in_first_seen_order(self):
        records = [
            GainRecord(snr_max_db=snr, strategy=strat, share=0.0, trial=t,
                       classical_rate=1.0, hier_rate=1.0 + g, gain=g)
            for t, (snr, strat, g) in enumerate(
                [(10.0, "D", 0.1), (7.0, "A", 0.2), (10.0, "D", 0.3), (7.0, "A", 0.6)]
            )
        ]
        rep = GainReport(records=tuple(records))
        assert rep.summary_rows() == [
            (10.0, "D", 0.0, (0.1 + 0.3) / 2, 0.1, 0.3),
            (7.0, "A", 0.0, (0.2 + 0.6) / 2, 0.2, 0.6),
        ]
        assert rep.gains(7, "A", 0) == [0.2, 0.6]
