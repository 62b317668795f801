"""Trial and scenario harness tests."""

import numpy as np
import pytest

from hmts.capacity import default_table
from hmts.channel import Receiver
from hmts.errors import DegenerateRateError, ParameterError
from hmts.rates import max_min_weighted, operating_points, pair_gain
from hmts.sim import (
    GainRecord,
    GainReport,
    PairRateCache,
    ScenarioConfig,
    run_scenario,
    run_trial,
    summarize,
)


@pytest.fixture(scope="module")
def table():
    return default_table()


@pytest.fixture(scope="module")
def cache(table):
    return PairRateCache(table)


class TestPairRateCache:
    def test_matches_direct_computation(self, table, cache):
        rng = np.random.default_rng(3)
        for _ in range(200):
            s1, s2 = sorted(rng.uniform(-3.0, 16.0, 2))
            w1, w2 = rng.integers(1, 4, 2)
            direct = max_min_weighted(
                operating_points(s1, s2, table), int(w1), int(w2)
            )
            assert cache.pair_rate(s1, s2, int(w1), int(w2)) == pytest.approx(
                direct, abs=1e-12
            )

    def test_order_canonicalisation(self, cache):
        a = cache.pair_rate(7.0, 10.0, 2, 1)
        b = cache.pair_rate(10.0, 7.0, 1, 2)
        assert a == b

    def test_single_rate_matches_table(self, table, cache):
        from hmts.capacity import best_single_rate

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


class TestRunTrial:
    def test_two_receiver_pair_reproduces_pair_gain(self, table, cache):
        pop = [Receiver(7.0), Receiver(10.0)]
        classical, hier, gain, excluded = run_trial(pop, "A", cache)
        assert excluded == ()
        assert classical == pytest.approx(1.2)
        assert gain == pytest.approx(pair_gain(7.0, 10.0, table), abs=1e-12)

    def test_homogeneous_reduces_to_pair_gain(self, table, cache):
        s = 9.0
        pop = [Receiver(s)] * 6
        _, _, gain, _ = run_trial(pop, "D", cache)
        assert gain == pytest.approx(pair_gain(s, s, table), abs=1e-12)

    def test_four_receiver_strategies(self, cache):
        pop = [Receiver(4.0), Receiver(4.0), Receiver(12.0), Receiver(12.0)]
        _, _, gain_a, _ = run_trial(pop, "A", cache)
        _, _, gain_d, _ = run_trial(pop, "D", cache)
        assert gain_a == pytest.approx(0.20, abs=0.05)
        assert gain_d == pytest.approx(0.0, abs=0.05)

    def test_undecodable_receivers_excluded(self, cache):
        pop = [Receiver(-8.0), Receiver(7.0), Receiver(10.0), Receiver(12.0)]
        classical, hier, gain, excluded = run_trial(pop, "A", cache)
        assert excluded == (0,)
        assert gain >= 0.0

    def test_odd_after_exclusion_keeps_all_served(self, cache):
        # exclusion leaves 3 receivers: one is served solo, none dropped
        pop = [Receiver(-8.0), Receiver(6.0), Receiver(9.0), Receiver(12.0)]
        classical, hier, gain, excluded = run_trial(pop, "A", cache)
        assert excluded == (0,)
        assert hier >= classical

    def test_all_undecodable(self, cache):
        pop = [Receiver(-8.0), Receiver(-9.0)]
        with pytest.raises(DegenerateRateError) as err:
            run_trial(pop, "A", cache)
        assert err.value.receivers == (0, 1)

    def test_nan_receiver_rejected(self):
        with pytest.raises(ParameterError):
            [Receiver(s) for s in (float("nan"), 20.0, 8.0, 9.0)]

    def test_unknown_strategy(self, cache):
        with pytest.raises(ParameterError):
            run_trial([Receiver(7.0), Receiver(10.0)], "E", cache)

    def test_gain_nonnegative_random(self, cache):
        rng = np.random.default_rng(29)
        for _ in range(30):
            pop = [Receiver(float(s)) for s in rng.uniform(3.0, 15.0, 20)]
            for strat in "ABCD":
                _, _, gain, _ = run_trial(pop, strat, cache, seed=1)
                assert gain >= 0.0


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
