"""Acceptance suite: ten numbered criteria, one test each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one PASS line
per criterion.  Criteria 1-5 are exact (closed-form or enumeration
oracles); criteria 6-9 are banded because the hierarchical decoding
thresholds come from a declared surrogate estimator and the weather
distribution is a documented placeholder.
"""

import time

import numpy as np

from hmts.capacity import (
    ADOPTED_APSK_GEOMETRY,
    ThresholdTable,
    default_table,
    estimate_hierarchical_thresholds,
)
from hmts.constellation import energy_fraction, solution_set, solve_theta
from hmts.pairing import run_strategy
from hmts.rates import RatePair, equal_rate_point, pair_gain, ts_rate_n, ts_rate_two
from hmts.sim import PairRateCache, ScenarioConfig, run_scenario

from oracles import (
    brute_force_matching,
    delta_upper_bound,
    max_min_rate_exhaustive,
    ts_common_rate_search,
)

RHO_SWEEP = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]


def report(criterion, elapsed, budget, detail):
    assert elapsed < budget
    print(f"\nACCEPTANCE PASS criterion {criterion}: {detail} [{elapsed:.2f}s < {budget:.0f}s]")


def test_criterion_01_energy_equation_suite():
    start = time.perf_counter()
    worst = 0.0
    for rho in RHO_SWEEP:
        sol = solution_set(rho, n_samples=512, gamma_cap=5.0)
        for gamma, theta in sol.curve:
            worst = max(worst, abs(energy_fraction(gamma, theta) - rho))
    assert worst < 1e-9
    t08 = solve_theta(1.0, 0.8)
    t09 = solve_theta(1.0, 0.9)
    assert abs(t08 - 37.9) <= 0.2
    assert abs(t09 - 26.2) <= 0.2
    report(
        1, time.perf_counter() - start, 1.0,
        f"round-trip residual {worst:.2e} < 1e-9, "
        f"theta(1, 0.8)={t08:.2f} deg, theta(1, 0.9)={t09:.2f} deg",
    )


def test_criterion_02_adopted_geometry_energy_fractions():
    start = time.perf_counter()
    errs = {}
    for rho, params in ADOPTED_APSK_GEOMETRY.items():
        got = energy_fraction(params.gamma, params.theta_deg)
        errs[rho] = abs(got - rho)
        assert errs[rho] <= 0.003, (rho, got)
    report(
        2, time.perf_counter() - start, 1.0,
        "adopted (gamma, theta) energy fractions off by "
        + ", ".join(f"{rho}: {e:.1e}" for rho, e in errs.items()),
    )


def test_criterion_03_time_sharing_identities():
    start = time.perf_counter()
    assert ts_rate_two(2.0, 3.0) == 1.2
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        rates = rng.uniform(0.1, 5.0, n)
        weights = [int(w) for w in rng.integers(1, 5, n)]
        ours = ts_rate_n(rates, weights)
        oracle = ts_common_rate_search(rates, weights)
        worst = max(worst, abs(ours - oracle) / oracle)
    assert worst < 1e-6
    report(
        3, time.perf_counter() - start, 10.0,
        f"ts_rate_two(2,3)=1.2 exact; 1000 random allocations vs search "
        f"oracle, worst relative error {worst:.1e}",
    )


def test_criterion_04_hull_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(10000):
        n = int(rng.integers(1, 13))
        pts = [RatePair(float(x), float(y)) for x, y in rng.uniform(0.0, 5.0, (n, 2))]
        pts.append(RatePair(float(rng.uniform(0.05, 5.0)), 0.0))
        pts.append(RatePair(0.0, float(rng.uniform(0.05, 5.0))))
        ours = equal_rate_point(pts)
        oracle = max_min_rate_exhaustive([(p.r1, p.r2) for p in pts])
        worst = max(worst, abs(ours - oracle))
    assert worst < 1e-9
    report(
        4, time.perf_counter() - start, 30.0,
        f"equal-rate point vs exhaustive segment-diagonal oracle on 10000 "
        f"random sets, worst |error| {worst:.1e}",
    )


def test_criterion_05_matching_theorem():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    for k in range(500):
        n = int(rng.choice([4, 6, 8, 10, 12]))
        snrs = [float(s) for s in rng.uniform(0.0, 20.0, n)]
        if k % 7 == 0:  # duplicated levels exercise the histogram bound
            snrs[: n // 2] = snrs[n // 2:]
        a = run_strategy("A", snrs).delta_avg
        best = brute_force_matching(snrs, "max").delta_avg
        levels = {}
        for s in snrs:
            levels[s] = levels.get(s, 0) + 1
        bound = delta_upper_bound(levels)
        assert abs(a - best) < 1e-12
        assert abs(a - bound) < 1e-12
        d = run_strategy("D", snrs).delta_avg
        worst_min = brute_force_matching(snrs, "min").delta_avg
        assert abs(d - worst_min) < 1e-12
    report(
        5, time.perf_counter() - start, 60.0,
        "greedy max pairing = brute-force max = closed-form bound, and "
        "sorted-adjacent = brute-force min, on 500 instances of <= 12 receivers",
    )


def test_criterion_06_pair_gain_7_10_with_estimated_thresholds():
    start = time.perf_counter()
    shipped = default_table()
    entries = list(shipped.singles())
    for rho in (0.75, 0.80, 0.85, 0.90):
        entries.extend(estimate_hierarchical_thresholds(rho))
    # the estimator regenerates the shipped hierarchical rows exactly
    assert entries[len(shipped.singles()):] == [e for e in shipped.entries if e.stream != "single"]
    table = ThresholdTable(entries)
    gain = pair_gain(7.0, 10.0, table)
    assert 0.07 <= gain <= 0.15  # 11% +/- 4 points
    report(
        6, time.perf_counter() - start, 300.0,
        f"pair gain at (7, 10) dB = {gain:.3f} within 0.11 +/- 0.04 using "
        "freshly estimated hierarchical thresholds",
    )


def test_criterion_07_gain_grid_bounds():
    start = time.perf_counter()
    cache = PairRateCache(default_table())
    grid = np.arange(4.0, 12.0 + 1e-9, 0.5)
    best = -1.0
    for s1 in grid:
        for s2 in grid[grid >= s1]:
            r1 = cache.best_single_rate(s1)
            r2 = cache.best_single_rate(s2)
            r_ts = ts_rate_two(r1, r2)
            gain = cache.pair_rate(s1, s2) / r_ts - 1.0
            assert gain >= -1e-9
            best = max(best, gain)
    assert 0.12 <= best <= 0.25
    report(
        7, time.perf_counter() - start, 600.0,
        f"gain >= 0 over the [4, 12] dB grid; maximum gain {best:.3f} in [0.12, 0.25]",
    )


def test_criterion_08_homogeneous_scenario():
    start = time.perf_counter()
    cfg = ScenarioConfig(
        n_receivers=500,
        n_trials=100,
        snr_max_grid=(7.0, 10.0, 13.0, 18.0),
        strategies=("A", "B", "C", "D"),
        seed=1,
    )
    rep = run_scenario(cfg, mode="homogeneous")
    for snr in (7.0, 10.0, 13.0):
        means = {s: rep.mean_gain(snr, s) for s in "ACD"}
        assert means["A"] >= means["C"] >= means["D"], (snr, means)
    a10 = rep.mean_gain(10.0, "A")
    assert 0.05 <= a10 <= 0.13
    a18 = rep.mean_gain(18.0, "A")
    assert a18 <= 0.01
    assert all(r.gain >= 0.0 for r in rep.records)
    report(
        8, time.perf_counter() - start, 600.0,
        f"strategy ordering A >= C >= D at 7/10/13 dB; A mean at 10 dB = "
        f"{a10:.3f} in [0.05, 0.13]; mean at 18 dB = {a18:.4f} <= 0.01",
    )


def test_criterion_09_heterogeneous_peak_at_half():
    start = time.perf_counter()
    shares = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
    cfg = ScenarioConfig(
        n_receivers=500,
        n_trials=100,
        snr_max_grid=(10.0,),
        strategies=("A",),
        professional_share_grid=shares,
        professional_weight=1,
        seed=1,
    )
    het = run_scenario(cfg, mode="heterogeneous")
    gains = {s: het.mean_gain(10.0, "A", s) for s in shares}
    peak_share = max(gains, key=gains.get)
    assert peak_share == 0.5, gains
    hom = run_scenario(
        ScenarioConfig(
            n_receivers=500, n_trials=100, snr_max_grid=(10.0,),
            strategies=("A",), seed=1,
        ),
        mode="homogeneous",
    )
    hom_gain = hom.mean_gain(10.0, "A")
    assert gains[0.5] > hom_gain
    report(
        9, time.perf_counter() - start, 900.0,
        f"heterogeneous gain peaks at share 0.5 ({gains[0.5]:.3f}) and "
        f"exceeds the homogeneous gain ({hom_gain:.3f}) at 10 dB",
    )


def test_criterion_10_banded_criteria_by_design():
    # Criteria 6-9 are banded or property-based by design: the
    # hierarchical thresholds are declared surrogate estimates and the
    # weather distribution is a placeholder, so no exact scenario-level
    # value is defensible.  Criteria 1-5 are exact.  This check pins the
    # corresponding design choice: both inputs are ingested, documented
    # data files, not hard-coded constants.
    start = time.perf_counter()
    from importlib import resources

    weather_text = resources.files("hmts.data").joinpath("weather_cdf.csv").read_text()
    assert weather_text.lstrip().startswith("#")
    assert "laceholder" in weather_text
    table_text = resources.files("hmts.data").joinpath("dvbs2_thresholds.csv").read_text()
    assert "estimated" in table_text
    from hmts.channel import default_weather_cdf

    cdf = default_weather_cdf()
    assert cdf.points[-1][1] == 1.0
    report(
        10, time.perf_counter() - start, 10.0,
        "weather distribution and threshold table are ingested, documented "
        "data files; banded criteria 6-9 reflect surrogate inputs by design",
    )
