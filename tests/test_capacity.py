"""Threshold estimation and table ingestion tests.

Monte-Carlo MI estimates are checked against an independent Gauss-Hermite
quadrature oracle; threshold inversion against a fine-grid inversion of
the quadrature curve.
"""

import gc
import itertools
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hmts import capacity
from hmts.capacity import (
    ADOPTED_APSK_GEOMETRY,
    DVBS2_CODE_RATES,
    ModCod,
    ThresholdTable,
    best_entry,
    default_table,
    estimate_hierarchical_thresholds,
    estimate_threshold,
    hierarchical_constellation,
    hierarchical_modulation_id,
    load_thresholds,
    save_thresholds,
    select_pair,
    stream_mutual_information,
)
from hmts.constellation import (
    Apsk16Params,
    Constellation,
    build_16apsk,
    build_uniform,
    solution_set,
)
from hmts.errors import ParameterError, TableError, UnreachableThresholdError
from hmts.sim import PairRateCache

from oracles import (
    curve_mutual_information_whole,
    estimate_threshold_bisect,
    hierarchical_8psk,
    hierarchical_16qam,
    invert_mi_grid,
    qpsk_mi,
    stream_mi_quadrature,
    stream_mutual_information_dense,
)

# (constellation, stream) pairs the kernel is checked on against the
# dense reference kernel
KERNEL_CASES = (
    [(build_uniform("QPSK"), "single")]
    + [
        (c, stream)
        for c in (
            *(hierarchical_constellation(hierarchical_modulation_id(r))
              for r in ADOPTED_APSK_GEOMETRY),
            hierarchical_8psk(18.0),
            hierarchical_16qam(alpha=0.5),
        )
        for stream in ("single", "HE", "LE")
    ]
)


def _hierarchical_6psk():
    """Six points on the unit circle: the HE bit names the half plane and
    the two LE bits one of its three points.  Six sent symbols end the MI
    kernel's blocks of four in a block of two."""
    return Constellation(
        name="H6PSK",
        symbols=np.exp(1j * np.pi * (np.arange(6) + 0.5) / 3),
        labels=("000", "001", "010", "100", "101", "110"),
        he_bits=(0,),
        le_bits=(1, 2),
    )


# (constellation, stream) pairs the blocked kernel is checked on against
# the whole-array one
BLOCK_CASES = KERNEL_CASES + [
    (_hierarchical_6psk(), stream) for stream in ("single", "HE", "LE")
]


def _extreme_examples(test):
    """Both ends of the SNR range and of the quality the dense-kernel
    property draws, on QPSK and on each stream of H16APSK-0.80."""
    for case, snr_db, quality, seed in itertools.product(
        (0, 4, 5, 6), (-10.0, 30.0), (1000, 40000), (0, 9)
    ):
        test = example(case=case, snr_db=snr_db, seed=seed, quality=quality)(test)
    return test


@pytest.fixture(scope="module")
def qpsk():
    return build_uniform("QPSK")


@pytest.fixture(scope="module")
def apsk_08():
    return hierarchical_constellation("H16APSK-0.80")


@pytest.fixture(scope="module")
def table():
    return default_table()


class TestStreamMutualInformation:
    def test_qpsk_high_snr_asymptote(self, qpsk):
        assert stream_mutual_information(qpsk, "single", 30.0) > 2.0 - 0.01

    def test_low_snr_limit(self, qpsk, apsk_08):
        assert stream_mutual_information(qpsk, "single", -10.0) < 0.1 * 2
        for stream in ("single", "HE", "LE"):
            assert stream_mutual_information(apsk_08, stream, -10.0) < 0.1 * 2

    def test_matches_quadrature_oracle(self, apsk_08):
        for stream, snr in [("single", 8.0), ("HE", 6.0), ("LE", 11.0)]:
            mc = stream_mutual_information(apsk_08, stream, snr, quality=60000)
            exact = stream_mi_quadrature(apsk_08, stream, snr)
            assert mc == pytest.approx(exact, abs=0.02)

    def test_superposed_qpsk_he_stream(self):
        # equal-energy superposition: the HE stream behaves like a QPSK
        # whose SNR treats the LE component as Gaussian-like interference
        c = hierarchical_16qam(alpha=0.0)
        for snr_db in (-3.0, 0.0, 3.0):
            mc = stream_mutual_information(c, "HE", snr_db, quality=60000, seed=1)
            exact = stream_mi_quadrature(c, "HE", snr_db)
            snr_lin = 10.0 ** (snr_db / 10.0)
            sinr_db = 10.0 * math.log10(0.5 * snr_lin / (1.0 + 0.5 * snr_lin))
            approx = qpsk_mi(sinr_db)
            assert mc == pytest.approx(exact, abs=0.02)
            assert mc == pytest.approx(approx, abs=0.02)

    def test_nondecreasing_in_snr(self, apsk_08, qpsk):
        for c, stream in [(qpsk, "single"), (apsk_08, "HE"), (apsk_08, "LE")]:
            grid = np.arange(-10.0, 30.1, 0.5)
            mi = [
                stream_mutual_information(c, stream, s, quality=4000, seed=2)
                for s in grid
            ]
            for a, b in zip(mi, mi[1:]):
                assert b >= a - 0.02

    def test_chain_rule_at_matched_snr(self, apsk_08):
        for snr in (6.0, 10.0, 14.0):
            he = stream_mutual_information(apsk_08, "HE", snr, quality=80000, seed=3)
            le = stream_mutual_information(apsk_08, "LE", snr, quality=80000, seed=4)
            total = stream_mutual_information(apsk_08, "single", snr, quality=80000, seed=5)
            assert he + le == pytest.approx(total, abs=0.03)

    def test_hierarchical_8psk_chain_rule(self):
        c = hierarchical_8psk(18.0)
        he = stream_mutual_information(c, "HE", 8.0, quality=60000, seed=6)
        le = stream_mutual_information(c, "LE", 8.0, quality=60000, seed=7)
        total = stream_mutual_information(c, "single", 8.0, quality=60000, seed=8)
        assert he + le == pytest.approx(total, abs=0.03)
        assert le < 1.0 <= c.stream_bits("LE")

    def test_stream_requires_hierarchical(self, qpsk):
        with pytest.raises(ParameterError):
            stream_mutual_information(qpsk, "HE", 5.0)

    def test_quality_floor(self, qpsk):
        with pytest.raises(ParameterError):
            stream_mutual_information(qpsk, "single", 5.0, quality=100)

    @pytest.mark.parametrize("quality", [2000.0, 1500.5, "3000", True, None])
    def test_quality_must_be_an_integer(self, qpsk, apsk_08, quality):
        message = "quality must be an integer >= 1000"
        with pytest.raises(ParameterError, match=message):
            stream_mutual_information(qpsk, "single", 5.0, quality=quality)
        with pytest.raises(ParameterError, match=message):
            estimate_threshold(apsk_08, "HE", Fraction(1, 2), quality=quality)
        with pytest.raises(ParameterError, match=message):
            select_pair(0.8, [Fraction(1, 2)], n_grid=3, quality=quality)

    @pytest.mark.parametrize("seed", [-1, 1.5, None, True])
    def test_seed_must_be_a_nonnegative_integer(self, qpsk, seed):
        with pytest.raises(ParameterError, match="seed"):
            stream_mutual_information(qpsk, "single", 5.0, seed=seed)

    def test_nonuniform_classes_rejected(self):
        # two HE classes of sizes 2 and 1
        c = Constellation(
            name="uneven",
            symbols=np.array([1.0, 1j, -1.0]),
            labels=("00", "01", "10"),
            he_bits=(0,),
            le_bits=(1,),
        )
        with pytest.raises(ParameterError, match="not uniform"):
            stream_mutual_information(c, "HE", 5.0)

    @settings(max_examples=80, deadline=None)
    @given(
        case=st.integers(0, len(KERNEL_CASES) - 1),
        snr_db=st.floats(-10.0, 30.0),
        seed=st.integers(0, 9),
        quality=st.integers(1000, 40000),
    )
    @_extreme_examples
    def test_matches_dense_kernel(self, case, snr_db, seed, quality):
        c, stream = KERNEL_CASES[case]
        ours = stream_mutual_information(c, stream, snr_db, quality=quality, seed=seed)
        dense = stream_mutual_information_dense(c, stream, snr_db, quality=quality, seed=seed)
        assert math.isfinite(ours)
        assert abs(ours - dense) <= 1e-12

    @pytest.mark.parametrize("case", range(len(BLOCK_CASES)))
    @settings(max_examples=8, deadline=None)
    @given(
        snrs=st.lists(st.floats(-10.0, 30.0), min_size=1, max_size=3),
        quality=st.sampled_from([1000, 1001, 2000, 20000]),
        seed=st.integers(0, 2),
    )
    @example(snrs=[-10.0, 30.0], quality=1001, seed=2)
    @example(snrs=[30.0, -10.0], quality=20000, seed=0)
    def test_blocked_kernel_equals_whole_arrays(self, case, snrs, quality, seed):
        # several SNRs on one curve: each evaluation overwrites the
        # buffers the one before it filled
        c, stream = BLOCK_CASES[case]
        curve = capacity._Curve(c, stream, quality, seed)
        for snr_db in snrs:
            ours = curve.mutual_information(snr_db)
            assert ours == curve_mutual_information_whole(curve, snr_db), snr_db

    def test_a_case_ends_in_a_partial_block(self):
        sizes = {len(c.labels) for c, _ in BLOCK_CASES}
        assert any(m % capacity._MI_BLOCK for m in sizes), sizes

    def test_threads_on_one_curve_equal_serial_calls(self, apsk_08):
        # more threads than cores evaluate one curve at once and share the
        # buffers it keeps; each thread starts at another SNR
        snrs = [float(s) for s in np.linspace(-10.0, 30.0, 8)]
        _evict_curve_memo()
        serial = [stream_mutual_information(apsk_08, "HE", s, quality=2000) for s in snrs]
        results = {}

        def evaluate(t):
            order = snrs[t:] + snrs[:t]
            results[t] = [
                stream_mutual_information(apsk_08, "HE", s, quality=2000)
                for s in order * 4
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=evaluate, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(6):
            assert results[t] == (serial[t:] + serial[:t]) * 4, t

    def test_alternating_curves_equal_cold_calls(self, apsk_08):
        curves = [(apsk_08, stream) for stream in ("HE", "LE", "single")]
        snrs = (-10.0, 2.5, 11.0, 30.0)
        cold = {}
        for (c, stream), snr in itertools.product(curves, snrs):
            _evict_curve_memo()
            cold[stream, snr] = stream_mutual_information(c, stream, snr, quality=2000, seed=3)
        # every call switches curve, then each curve is called twice in a row
        for snr in snrs:
            for c, stream in curves + curves[::-1] + [curves[0]] * 2:
                got = stream_mutual_information(c, stream, snr, quality=2000, seed=3)
                assert got == cold[stream, snr], (stream, snr)


class TestEstimateThreshold:
    def test_qpsk_half_rate_vs_grid_oracle(self, qpsk):
        ours = estimate_threshold(qpsk, "single", Fraction(1, 2), loss_margin_db=0.0)
        oracle = invert_mi_grid(lambda s: qpsk_mi(s), 1.0, lo=-2.0, hi=3.0)
        assert ours == pytest.approx(oracle, abs=0.05)

    def test_vanishing_rate_limit(self, qpsk):
        th = estimate_threshold(qpsk, "single", Fraction(1, 100), loss_margin_db=0.0)
        assert th < -5.0

    def test_he_golden_value(self, apsk_08):
        # frozen from the first computation with the default settings
        th = estimate_threshold(apsk_08, "HE", Fraction(2, 3))
        assert th == pytest.approx(6.26, abs=0.05)

    def test_monotone_in_code_rate(self, apsk_08):
        rates = [Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(9, 10)]
        for stream in ("HE", "LE"):
            ths = [estimate_threshold(apsk_08, stream, r, quality=4000) for r in rates]
            assert all(b > a for a, b in zip(ths, ths[1:]))

    def test_unreachable(self):
        # nearly collapsed outer ring: the LE points of a quadrant are
        # almost coincident, so LE information saturates below 1 bit
        c = build_16apsk(Apsk16Params(2.82, 0.05))
        with pytest.raises(UnreachableThresholdError):
            estimate_threshold(c, "LE", Fraction(1, 2), quality=2000)

    def test_margin_added(self, qpsk):
        base = estimate_threshold(qpsk, "single", Fraction(1, 2), loss_margin_db=0.0)
        shifted = estimate_threshold(qpsk, "single", Fraction(1, 2), loss_margin_db=0.8)
        assert shifted == pytest.approx(base + 0.8, abs=1e-9)
        # both ends of the allowed range
        assert estimate_threshold(qpsk, "single", Fraction(1, 2), loss_margin_db=10.0) == (
            pytest.approx(base + 10.0, abs=1e-9)
        )

    @pytest.mark.parametrize("margin", [1e308, -100.0, -0.01, 10.01, math.nan, math.inf])
    def test_margin_out_of_range(self, qpsk, margin):
        with pytest.raises(ParameterError, match="loss margin"):
            estimate_threshold(qpsk, "single", Fraction(1, 2), loss_margin_db=margin)

    def test_bisection_matches_dense_kernel(self, monkeypatch):
        # three code rates and a seed per case, drawn from a fixed seed
        rng = np.random.default_rng(7)
        calls = [
            (c, stream, DVBS2_CODE_RATES[k], int(rng.integers(10)))
            for c, stream in KERNEL_CASES
            for k in rng.choice(len(DVBS2_CODE_RATES), size=3, replace=False)
        ]

        def thresholds():
            out = []
            for c, stream, rate, seed in calls:
                try:
                    out.append(estimate_threshold(
                        c, stream, rate, quality=4000, loss_margin_db=0.0, seed=seed
                    ))
                except UnreachableThresholdError:
                    out.append(None)
            return out

        ours = thresholds()
        with monkeypatch.context() as mp:
            mp.setattr(capacity, "stream_mutual_information", stream_mutual_information_dense)
            mp.setattr(capacity, "_last_curve", (None, {}))
            dense = thresholds()
        assert ours == dense
        assert sum(th is not None for th in ours) >= len(calls) // 2


def _evict_curve_memo():
    """Estimate a threshold on an unrelated curve, so that the next call
    starts cold."""
    estimate_threshold(build_uniform("QPSK"), "single", Fraction(1, 2), quality=1000)


# the order of --rates in the benchmark's thresholds_estimate at seed 1
SEED1_RATE_ORDER = [
    Fraction(r) for r in "3/4,5/6,1/4,8/9,1/2,3/5,9/10,2/3,1/3,4/5,2/5".split(",")
]


@pytest.fixture(scope="module")
def cold_entries_080():
    """The H16APSK-0.80 entry of each stream and rate at quality 2000,
    each from a cold ``estimate_threshold`` call."""
    c = hierarchical_constellation("H16APSK-0.80")
    entries = {}
    for stream, rate in itertools.product(("HE", "LE"), DVBS2_CODE_RATES):
        _evict_curve_memo()
        th = estimate_threshold(c, stream, rate, quality=2000)
        entries[stream, rate] = ModCod(c.name, rate, stream, round(th, 2))
    return entries


class TestCurveMemo:
    @pytest.fixture
    def mi_calls(self, monkeypatch):
        calls = []
        kernel = capacity.stream_mutual_information

        def counted(c, stream, snr_db, **kwargs):
            calls.append((stream, snr_db))
            return kernel(c, stream, snr_db, **kwargs)

        monkeypatch.setattr(capacity, "stream_mutual_information", counted)
        return calls

    def test_evaluations_at_rho_080(self, mi_calls):
        _evict_curve_memo()
        mi_calls.clear()
        entries = estimate_hierarchical_thresholds(0.8)
        assert len(entries) == 22
        # bisection took 14 per threshold cold (308) and 183 on one warm
        # curve per stream
        assert len(mi_calls) == 58
        assert len(set(mi_calls)) == len(mi_calls)

    def test_evaluations_whatever_the_rate_order(self, mi_calls):
        default = {(e.stream, e.code_rate): e for e in estimate_hierarchical_thresholds(0.8)}
        _evict_curve_memo()
        mi_calls.clear()
        entries = estimate_hierarchical_thresholds(0.8, SEED1_RATE_ORDER)
        # solved in this order instead of ascending, the rates took 71
        assert len(mi_calls) == 58
        assert len(set(mi_calls)) == len(mi_calls)
        assert entries == [
            default[stream, rate] for stream in ("HE", "LE") for rate in SEED1_RATE_ORDER
        ]

    def test_every_rate_checked_before_the_first_evaluation(self, mi_calls):
        with pytest.raises(ParameterError, match="code rate"):
            estimate_hierarchical_thresholds(0.8, [Fraction(1, 2), Fraction(3, 2)], quality=2000)
        assert mi_calls == []

    @settings(max_examples=30, deadline=None)
    @given(order=st.permutations(DVBS2_CODE_RATES))
    @example(order=SEED1_RATE_ORDER)
    @example(order=DVBS2_CODE_RATES[::-1])
    def test_any_rate_order_equals_cold_calls(self, cold_entries_080, order):
        _evict_curve_memo()
        entries = estimate_hierarchical_thresholds(0.8, order, quality=2000)
        assert entries == [
            cold_entries_080[stream, rate] for stream in ("HE", "LE") for rate in order
        ]

    def test_select_pair_whatever_the_rate_order(self, mi_calls):
        chosen, counts = [], []
        for rates in (DVBS2_CODE_RATES, DVBS2_CODE_RATES[::-1]):
            _evict_curve_memo()
            mi_calls.clear()
            chosen.append(select_pair(0.8, rates, n_grid=7, quality=2000))
            counts.append(len(mi_calls))
        # solved in the reversed order, the reversed rates took 231
        # evaluations against 212
        assert counts[1] == counts[0]
        # what select_pair returned for the reversed rates when it solved
        # them in that order
        assert chosen[1] == Apsk16Params(gamma=2.333333333333333, theta_deg=28.16069277909177)

    def test_repeated_threshold_makes_no_evaluation(self, apsk_08, mi_calls):
        first = estimate_threshold(apsk_08, "HE", Fraction(2, 3), quality=2000)
        n_calls = len(mi_calls)
        assert estimate_threshold(apsk_08, "HE", Fraction(2, 3), quality=2000) == first
        assert len(mi_calls) == n_calls

    def test_interleaved_curves_equal_cold_calls(self):
        constellations = (
            hierarchical_constellation("H16APSK-0.80"),
            hierarchical_constellation("H16APSK-0.85"),
        )

        def curve(g):
            # bit b of g picks the value of one key component
            return (
                constellations[g & 1],
                ("HE", "LE")[g >> 1 & 1],
                (1000, 2000)[g >> 2 & 1],
                (0, 1)[g >> 3 & 1],
            )

        rates = (Fraction(1, 2), Fraction(2, 3))
        # Gray order: consecutive curves differ in exactly one component
        order = [i ^ (i >> 1) for i in range(16)]
        cold = {}
        for g in order:
            c, stream, quality, seed = curve(g)
            for rate in rates:
                _evict_curve_memo()
                cold[g, rate] = estimate_threshold(c, stream, rate, quality=quality, seed=seed)
        for g in order + order[::-1]:
            c, stream, quality, seed = curve(g)
            for rate in rates:
                got = estimate_threshold(c, stream, rate, quality=quality, seed=seed)
                assert got == cold[g, rate], (g, rate)


    def test_select_pair_keeps_one_curve(self):
        select_pair(0.8, [Fraction(1, 2), Fraction(2, 3)])  # 21 geometries
        gc.collect()
        curves = [o for o in gc.get_objects() if isinstance(o, capacity._Curve)]
        assert curves == [capacity._last_curve[1]]


def _thresholds(search, c, stream, rates, **kwargs):
    """Threshold of each rate in turn, None where it is unreachable."""
    out = []
    for rate in rates:
        try:
            out.append(search(c, stream, rate, **kwargs))
        except UnreachableThresholdError:
            out.append(None)
    return out


def _shuffled_rates(rng):
    return [DVBS2_CODE_RATES[k] for k in rng.permutation(len(DVBS2_CODE_RATES))]


class TestSearchEqualsBisection:
    """The interpolating search returns the bisection's threshold."""

    def _check(self, c, stream, rates, **kwargs):
        _evict_curve_memo()
        ours = _thresholds(estimate_threshold, c, stream, rates, **kwargs)
        oracle = _thresholds(estimate_threshold_bisect, c, stream, rates, memo={}, **kwargs)
        assert ours == oracle, (c.name, stream, kwargs)
        return ours

    @pytest.mark.parametrize("rho", sorted(ADOPTED_APSK_GEOMETRY))
    def test_adopted_geometries(self, rho):
        # all 11 rates in a random order on one warm curve
        c = hierarchical_constellation(hierarchical_modulation_id(rho))
        rng = np.random.default_rng(round(rho * 100))
        for stream, quality, seed in itertools.product(
            ("HE", "LE"), (1000, 2000, 8000, 20000), range(4)
        ):
            self._check(c, stream, _shuffled_rates(rng), quality=quality, seed=seed)

    @pytest.mark.parametrize("name", ["QPSK", "8PSK", "16APSK-uniform"])
    def test_uniform_single_streams(self, name):
        c = build_uniform(name)
        rng = np.random.default_rng(len(name))
        for quality, seed in itertools.product((2000, 20000), range(2)):
            self._check(c, "single", _shuffled_rates(rng), quality=quality, seed=seed,
                        loss_margin_db=0.0)

    def test_select_pair_geometries(self):
        # every fifth geometry of select_pair's curve at rho 0.80, and the
        # two at rho 0.70 whose HE stream never reaches rate 8/9
        rng = np.random.default_rng(70)
        curves = {rho: solution_set(rho, n_samples=21, gamma_cap=5.0).curve for rho in (0.7, 0.8)}
        geometries = [*curves[0.8][1::5], *curves[0.7][1:3]]
        unreachable = 0
        for gamma, theta in geometries:
            c = build_16apsk(Apsk16Params(gamma, theta))
            ths = self._check(c, "HE", _shuffled_rates(rng), quality=8000, loss_margin_db=0.0)
            unreachable += ths.count(None)
        assert unreachable >= 2


def _synthetic_thresholds(curve, rates):
    """Thresholds of ``rates`` in turn on one curve put in place of the MI
    kernel, the first from cold, and the MI evaluations of each; both
    searches must agree, and none may take more than 14 evaluations."""
    qpsk = build_uniform("QPSK")  # 2 bits; the curves ignore it
    calls = []

    def mi(c, stream, snr_db, quality, seed):
        calls.append(snr_db)
        return curve(snr_db)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(capacity, "stream_mutual_information", mi)
        mp.setattr(capacity, "_last_curve", (None, None))
        ours, counts = [], []
        for rate in rates:
            calls.clear()
            ours += _thresholds(estimate_threshold, qpsk, "single", [rate], loss_margin_db=0.0)
            counts.append(len(calls))
        oracle = _thresholds(estimate_threshold_bisect, qpsk, "single", rates,
                             loss_margin_db=0.0)
    assert ours == oracle
    assert max(counts) <= 14, counts
    return ours, counts


class TestSearchOnSyntheticCurves:
    """Monotone MI curves put in place of the kernel: the search equals
    the bisection and takes at most 14 evaluations, cold or warm."""

    STEPS = [*np.linspace(-10.0, 30.0, 41), -9.995, -9.99, 7.123, 29.99, 29.995, 30.0]

    @pytest.mark.parametrize("rate", [Fraction(1, 4), Fraction(1, 2), Fraction(9, 10)])
    def test_step(self, rate):
        for s in self.STEPS:
            (th,), _ = _synthetic_thresholds(lambda x, s=s: 0.0 if x < s else 2.0, [rate])
            assert th >= s > th - 0.01

    def test_steep_sigmoid(self):
        for s in self.STEPS[::3]:
            def curve(x, s=s):
                return 2.0 / (1.0 + math.exp(min(700.0, 1000.0 * (s - x))))
            _synthetic_thresholds(curve, list(DVBS2_CODE_RATES))

    def test_plateau_exactly_at_the_target(self):
        # the MI rises to the target 1.0 at s, stays there for 5 dB, then
        # rises again: the answer is the first grid SNR at or above s
        for s in (-9.0, -2.5, 0.123, 11.0, 24.0):
            def curve(x, s=s):
                return min(1.0, max(0.0, (x + 10.0) / (s + 10.0))) + max(0.0, x - s - 5.0) / 40.0
            (th,), _ = _synthetic_thresholds(curve, [Fraction(1, 2)])
            assert th >= s > th - 0.01

    def test_target_reached_at_the_floor(self):
        (th,), _ = _synthetic_thresholds(lambda x: 1.0 + x / 100.0, [Fraction(1, 4)])
        assert th == -10.0

    def test_unreachable_at_the_ceiling(self):
        ths, counts = _synthetic_thresholds(lambda x: 0.5, [Fraction(1, 2)])
        assert ths == [None]
        assert counts == [1]

    @settings(max_examples=150, deadline=None)
    @given(
        knots=st.lists(
            st.tuples(st.floats(-12.0, 32.0), st.floats(0.0, 2.0)), min_size=1, max_size=8
        ),
        order=st.permutations(range(len(DVBS2_CODE_RATES))),
    )
    def test_random_monotone_curves(self, knots, order):
        # piecewise linear through sorted knots, flat beyond them; all
        # rates in a random order on one warm curve
        xs = np.sort([x for x, _ in knots])
        ys = np.sort([y for _, y in knots])
        rates = [DVBS2_CODE_RATES[k] for k in order]
        _synthetic_thresholds(lambda x: float(np.interp(x, xs, ys)), rates)


class TestRhoTradeoff:
    def test_he_down_le_up_with_rho(self, table):
        # more HE energy: the HE stream decodes earlier, the LE later
        rhos = (0.75, 0.80, 0.85, 0.90)
        for rate in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
            he = [
                next(
                    e.threshold_db
                    for e in table.entries_for(hierarchical_modulation_id(r), "HE")
                    if e.code_rate == rate
                )
                for r in rhos
            ]
            le = [
                next(
                    e.threshold_db
                    for e in table.entries_for(hierarchical_modulation_id(r), "LE")
                    if e.code_rate == rate
                )
                for r in rhos
            ]
            assert all(b < a for a, b in zip(he, he[1:])), he
            assert all(b > a for a, b in zip(le, le[1:])), le


class TestSelectPair:
    def test_single_rate_equals_curve_argmin(self):
        rates = [Fraction(2, 3)]
        chosen = select_pair(0.8, rates, n_grid=7, quality=2000)
        from hmts.constellation import solution_set

        curve = solution_set(0.8, n_samples=7, gamma_cap=5.0).curve
        best = None
        best_th = math.inf
        for gamma, theta in curve:
            if theta < 1e-9:
                continue
            c = build_16apsk(Apsk16Params(gamma, theta))
            th = estimate_threshold(c, "HE", rates[0], quality=2000, loss_margin_db=0.0)
            if th < best_th:
                best_th = th
                best = gamma
        assert chosen.gamma == pytest.approx(best, rel=1e-12)

    @pytest.mark.slow
    def test_rho_08_near_adopted_geometry(self):
        chosen = select_pair(0.8, DVBS2_CODE_RATES, n_grid=13, quality=4000)
        assert abs(chosen.gamma - 2.3) <= 0.5

    @pytest.mark.slow
    def test_rho_09_within_gamma_limit(self):
        chosen = select_pair(0.9, DVBS2_CODE_RATES, n_grid=13, quality=4000)
        assert chosen.gamma <= 2.822

    def test_empty_rates_rejected(self):
        with pytest.raises(ParameterError):
            select_pair(0.8, [])

    def test_unreachable_geometry_is_skipped(self):
        # at rho 0.70 the HE stream of the geometries gamma 1.2 and 1.4
        # never reaches rate 8/9 below 30 dB; like a collapsed theta, they
        # are infeasible, and the best of the 19 others is chosen
        rate = Fraction(8, 9)
        curve = solution_set(0.70, n_samples=21, gamma_cap=5.0).curve
        for gamma, theta in curve[1:3]:
            with pytest.raises(UnreachableThresholdError):
                estimate_threshold(build_16apsk(Apsk16Params(gamma, theta)), "HE", rate,
                                   quality=8000, loss_margin_db=0.0)
        assert [round(g, 6) for g, _ in curve[1:3]] == [1.2, 1.4]
        assert curve[1][1] == pytest.approx(46.25, abs=0.005)
        chosen = select_pair(0.70, rates=(rate,))
        assert chosen.gamma == pytest.approx(3.6)
        assert chosen.theta_deg == pytest.approx(34.03, abs=0.005)


class TestThresholdTable:
    def test_default_table_pins(self, table):
        entry = next(
            e for e in table.singles()
            if e.modulation == "16APSK" and e.code_rate == Fraction(9, 10)
        )
        assert entry.threshold_db == 13.13
        assert entry.provenance == "standard-ingested"

    def test_default_table_complete(self, table):
        singles = {(e.modulation, e.code_rate) for e in table.singles()}
        assert {m for m, _ in singles} == {"QPSK", "8PSK", "16APSK"}
        for rho in (0.75, 0.80, 0.85, 0.90):
            mod = hierarchical_modulation_id(rho)
            for stream in ("HE", "LE"):
                rates = {e.code_rate for e in table.entries_for(mod, stream)}
                assert rates == set(DVBS2_CODE_RATES), (mod, stream)

    def test_hierarchical_entries_are_estimates(self, table):
        mod = hierarchical_modulation_id(0.8)
        entry = table.entries_for(mod, "HE")[0]
        assert entry.provenance == "mi-estimated"
        assert entry.bits_per_stream == 2

    def test_spectral_efficiency(self):
        e = ModCod("8PSK", Fraction(2, 3), "single", 6.62)
        assert e.spectral_efficiency == pytest.approx(2.0)
        h = ModCod("H16APSK-0.80", Fraction(3, 4), "LE", 11.59)
        assert h.spectral_efficiency == pytest.approx(1.5)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TableError):
            load_thresholds(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("modulation,code_rate,stream,threshold_db\n")
        with pytest.raises(TableError):
            load_thresholds(path)

    def test_monotonicity_violation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "modulation,code_rate,stream,threshold_db\n"
            "QPSK,2/3,single,5.0\n"
            "QPSK,3/4,single,4.0\n"
        )
        with pytest.raises(TableError, match="increase with code rate"):
            load_thresholds(path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "modulation,code_rate,stream,threshold_db\n"
            "QPSK,2/3,single,notanumber\n"
        )
        with pytest.raises(TableError, match="line 2"):
            load_thresholds(path)

    @pytest.mark.parametrize("modulation", ["H16APSK-0.8", "H16APSK-0.725", "H16APSK-nan"])
    def test_non_canonical_rho_id_rejected(self, tmp_path, modulation):
        # filter_rho keeps the ids hierarchical_modulation_id gives, so
        # another spelling of rho would load and then be dropped silently
        path = tmp_path / "bad.csv"
        path.write_text(
            "modulation,code_rate,stream,threshold_db\n"
            "QPSK,1/2,single,1.0\n"
            f"{modulation},1/2,HE,3.26\n"
        )
        with pytest.raises(TableError, match=rf"line 3: .*{modulation}"):
            load_thresholds(path)

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "modulation,code_rate,stream,threshold_db\n"
            "QPSK,2/3,single,3.1\n"
            "QPSK,2/3,single,3.2\n"
        )
        with pytest.raises(TableError, match="duplicate"):
            load_thresholds(path)

    def test_round_trip(self, table, tmp_path):
        path = tmp_path / "out.csv"
        save_thresholds(table, path)
        again = load_thresholds(path)
        assert [
            (e.modulation, e.code_rate, e.stream, e.threshold_db) for e in again.entries
        ] == [(e.modulation, e.code_rate, e.stream, e.threshold_db) for e in table.entries]

    def test_filter_rho(self, table):
        sub = table.filter_rho((0.8,))
        assert sub.hierarchical_modulations() == ("H16APSK-0.80",)
        assert len(sub.singles()) == len(table.singles())

    def test_accessors_keep_table_order(self):
        entries = [
            ModCod("16APSK", Fraction(3, 4), "single", 9.97),
            ModCod("H16APSK-0.90", Fraction(1, 2), "HE", 2.0),
            ModCod("QPSK", Fraction(2, 3), "single", 3.10),
            ModCod("H16APSK-0.75", Fraction(1, 2), "LE", 9.0),
            ModCod("16APSK", Fraction(2, 3), "single", 8.97),
            ModCod("QPSK", Fraction(1, 2), "single", 1.00),
        ]
        table = ThresholdTable(entries)
        assert table.singles() == (entries[0], entries[2], entries[4], entries[5])
        assert table.entries_for("16APSK", "single") == (entries[0], entries[4])
        assert table.entries_for("QPSK", "single") == (entries[2], entries[5])
        assert table.entries_for("QPSK", "HE") == ()
        assert table.hierarchical_modulations() == ("H16APSK-0.75", "H16APSK-0.90")

    def test_unknown_stream_modulation_combos(self):
        with pytest.raises(TableError):
            ModCod("QPSK", Fraction(1, 2), "HE", 3.0)
        with pytest.raises(TableError):
            ModCod("WEIRD", Fraction(1, 2), "single", 3.0)


class TestBestSingleRate:
    def test_reference_operating_rates(self, table):
        best_single_rate = PairRateCache(table).best_single_rate
        assert best_single_rate(7.0) == pytest.approx(2.0)
        assert best_single_rate(10.0) == pytest.approx(3.0)

    def test_below_all_thresholds(self, table):
        assert PairRateCache(table).best_single_rate(-5.0) == 0.0

    def test_nondecreasing_in_snr(self, table):
        grid = np.arange(-5.0, 16.0, 0.25)
        values = PairRateCache(table).best_single_rate(grid)
        assert (np.diff(values) >= 0).all()

    def test_best_entry_first_wins_a_tie(self):
        # 3 * 8/9 and 4 * 2/3 round to the same float
        psk8 = ModCod("8PSK", Fraction(8, 9), "single", 10.69)
        apsk = ModCod("16APSK", Fraction(2, 3), "single", 8.97)
        assert psk8.spectral_efficiency == apsk.spectral_efficiency
        assert best_entry([psk8, apsk], 11.0) is psk8
        assert best_entry([apsk, psk8], 11.0) is apsk
        assert best_entry([psk8, apsk], 10.0) is apsk
        assert best_entry([psk8, apsk], 8.0) is None


class TestAdoptedGeometry:
    @pytest.mark.parametrize("rho", [0.803, 0.725, 0.801, 0.8 + 2e-9, math.nan, math.inf])
    def test_id_rejects_a_rho_off_the_hundredths(self, rho):
        # rounded, 0.803 would name H16APSK-0.80 and run as rho 0.80
        with pytest.raises(ParameterError, match="multiple of 0.01"):
            hierarchical_modulation_id(rho)

    @pytest.mark.parametrize("rho, mod_id", [
        (0.8, "H16APSK-0.80"), (0.8 - 1e-10, "H16APSK-0.80"), (0.7 + 0.05, "H16APSK-0.75"),
        (np.float64(0.9), "H16APSK-0.90"), (0.5, "H16APSK-0.50"),
    ])
    def test_id_of_a_rho_on_the_hundredths(self, rho, mod_id):
        assert hierarchical_modulation_id(rho) == mod_id

    def test_ids_round_trip(self):
        for rho, params in ADOPTED_APSK_GEOMETRY.items():
            c = hierarchical_constellation(hierarchical_modulation_id(rho))
            assert c.is_hierarchical
            assert len(c.symbols) == 16

    def test_unknown_id_rejected(self):
        with pytest.raises(ParameterError):
            hierarchical_constellation("H16APSK-0.77")
        with pytest.raises(ParameterError):
            hierarchical_constellation("QPSK")
