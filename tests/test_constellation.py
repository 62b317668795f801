"""Geometry tests: energy equation, solution curves, symbol builders."""

import math

import numpy as np
import pytest

from hmts.constellation import (
    Apsk16Params,
    build_16apsk,
    build_uniform,
    energy_fraction,
    gamma_limit,
    solution_set,
    solve_theta,
)
from hmts.errors import ParameterError, SymbolOverlapError

RHO_GRID = [0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95]


class TestEnergyFraction:
    def test_adopted_geometry_point_eight(self):
        assert energy_fraction(2.3, 28.4) == pytest.approx(0.800, abs=1e-3)

    def test_outside_solver_domain(self):
        # gamma=1, theta=90 gives (1+1)^2 / 16 = 0.25
        assert energy_fraction(1.0, 90.0) == pytest.approx(0.25, abs=1e-12)

    def test_adopted_geometry_point_nine(self):
        assert energy_fraction(1.6, 20.9) == pytest.approx(0.900, abs=2e-3)

    def test_rejects_nonpositive_gamma(self):
        with pytest.raises(ParameterError):
            energy_fraction(0.0, 30.0)


class TestSolveTheta:
    def test_gamma_one_rho_08(self):
        assert solve_theta(1.0, 0.8) == pytest.approx(37.9, abs=0.2)

    def test_gamma_one_rho_09(self):
        assert solve_theta(1.0, 0.9) == pytest.approx(26.2, abs=0.2)

    def test_gamma_one_rho_half_closed_form(self):
        expected = math.degrees(math.acos(math.sqrt(2.0) - 1.0))
        assert solve_theta(1.0, 0.5) == pytest.approx(expected, abs=1e-9)

    def test_infeasible_gamma_raises(self):
        with pytest.raises(ParameterError):
            solve_theta(3.0, 0.9)  # gamma_limit(0.9) < 3

    def test_rho_out_of_range(self):
        with pytest.raises(ParameterError):
            solve_theta(1.0, 0.4)
        with pytest.raises(ParameterError):
            solve_theta(1.0, 1.0)


class TestGammaLimit:
    def test_unbounded_at_075(self):
        assert gamma_limit(0.75) == math.inf
        assert gamma_limit(0.6) == math.inf

    def test_rho_08_closed_form_and_bisection(self):
        lim = gamma_limit(0.8)
        assert lim == pytest.approx(9.62, abs=0.01)
        # independent route: bisection on the cosine bound reaching 1
        lo, hi = 1.0, 50.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            f = 0.5 * ((math.sqrt(4 * 0.8 * (1 + 3 * mid * mid)) - 1) / mid - 1)
            if f < 1.0:
                lo = mid
            else:
                hi = mid
        assert lim == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_rho_09_closed_form(self):
        expected = (3 + 4 * math.sqrt(0.27)) / 1.8
        assert gamma_limit(0.9) == pytest.approx(expected, rel=1e-12)
        assert gamma_limit(0.9) == pytest.approx(2.822, abs=1e-3)

    def test_theta_vanishes_at_limit(self):
        for rho in (0.8, 0.85, 0.9, 0.95):
            assert solve_theta(gamma_limit(rho), rho) == pytest.approx(0.0, abs=1e-6)


class TestSolutionSet:
    def test_two_sample_endpoints(self):
        sol = solution_set(0.8, n_samples=2, gamma_cap=5.0)
        (g0, t0), (g1, t1) = sol.curve
        assert g0 == 1.0 and g1 == 5.0
        assert t0 == pytest.approx(37.9, abs=0.2)
        assert energy_fraction(5.0, t1) == pytest.approx(0.8, abs=1e-9)

    def test_gamma_capped_by_limit(self):
        sol = solution_set(0.9, n_samples=16, gamma_cap=5.0)
        assert sol.curve[-1, 0] == pytest.approx(gamma_limit(0.9), rel=1e-12)
        assert sol.curve[-1, 0] < 5.0

    def test_all_points_satisfy_energy_equation(self):
        sol = solution_set(0.5, n_samples=3, gamma_cap=5.0)
        for g, t in sol.curve:
            assert energy_fraction(g, t) == pytest.approx(0.5, abs=1e-9)

    def test_requires_two_samples(self):
        with pytest.raises(ParameterError):
            solution_set(0.8, n_samples=1)

    @pytest.mark.parametrize("rho, cap", [
        (0.8, math.nan), (0.7, math.nan), (0.7, math.inf), (0.75, math.inf), (0.8, 0.5),
    ])
    def test_rejects_cap_without_a_finite_range(self, rho, cap):
        with pytest.raises(ParameterError, match="^gamma_cap must be"):
            solution_set(rho, n_samples=5, gamma_cap=cap)

    def test_infinite_cap_stops_at_the_limit(self):
        sol = solution_set(0.8, n_samples=3, gamma_cap=math.inf)
        assert sol.curve[-1, 0] == gamma_limit(0.8)
        assert sol.curve[-1, 1] == 0.0


class TestEnergyEquationProperties:
    def test_round_trip_residual(self):
        for rho in RHO_GRID:
            hi = min(5.0, gamma_limit(rho))
            for gamma in np.linspace(1.0, hi, 64):
                theta = solve_theta(gamma, rho)
                assert abs(energy_fraction(gamma, theta) - rho) < 1e-9

    def test_cosine_monotone_in_gamma(self):
        from hmts.constellation import _f

        for rho in RHO_GRID:
            values = [_f(g, rho) for g in np.linspace(1.0, 8.0, 200)]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_cosine_lower_bound(self):
        from hmts.constellation import _f

        floor = math.sqrt(2.0) - 1.0
        for rho in RHO_GRID:
            for gamma in np.linspace(1.0, 8.0, 100):
                assert _f(gamma, rho) >= floor - 1e-12

    def test_theta_decreasing_in_rho_at_fixed_gamma(self):
        for gamma in (1.0, 1.5, 2.0):
            rhos = [0.5, 0.6, 0.7, 0.75, 0.8, 0.85]  # all feasible at gamma <= 2
            thetas = [solve_theta(gamma, rho) for rho in rhos]
            assert all(b < a for a, b in zip(thetas, thetas[1:]))

    def test_limit_cosine_equals_one(self):
        from hmts.constellation import _f

        for rho in (0.8, 0.85, 0.9, 0.95):
            assert _f(gamma_limit(rho), rho) == pytest.approx(1.0, abs=1e-9)


def quadrant_symbols(c, quadrant_label):
    return [s for s, lab in zip(c.symbols, c.labels) if lab[:2] == quadrant_label]


class TestBuild16Apsk:
    def test_barycenter_matches_energy_fraction(self):
        c = build_16apsk(Apsk16Params(2.3, 28.4))
        bary = np.mean(quadrant_symbols(c, "00"))
        assert abs(bary) == pytest.approx(math.sqrt(0.8), abs=1e-3)

    def test_degenerate_single_ring(self):
        c = build_16apsk(Apsk16Params(1.0, 45.0))
        assert len(c.symbols) == 16
        radii = np.abs(c.symbols)
        assert np.allclose(radii, radii[0])

    def test_unit_energy_for_any_params(self):
        for gamma, theta in [(1.0, 10.0), (2.3, 28.4), (4.5, 5.0), (1.2, 60.0)]:
            c = build_16apsk(Apsk16Params(gamma, theta))
            assert np.mean(np.abs(c.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_overlap_rejected(self):
        with pytest.raises(SymbolOverlapError):
            build_16apsk(Apsk16Params(1.0, 0.0))
        with pytest.raises(SymbolOverlapError):
            build_16apsk(Apsk16Params(2.0, 0.0))

    def test_ring_structure(self):
        c = build_16apsk(Apsk16Params(2.3, 28.4))
        radii = sorted(np.abs(c.symbols))
        assert np.allclose(radii[:4], radii[0])
        assert np.allclose(radii[4:], radii[-1])
        assert radii[-1] / radii[0] == pytest.approx(2.3, rel=1e-12)

    def test_inner_points_on_diagonals(self):
        c = build_16apsk(Apsk16Params(2.0, 20.0))
        inner = [s for s in c.symbols if abs(s) < np.mean(np.abs(c.symbols))]
        angles = sorted(np.degrees(np.angle(inner)) % 360.0)
        assert np.allclose(angles, [45.0, 135.0, 225.0, 315.0])

    def test_barycenter_identity_on_random_params(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            gamma = 1.0 + 4.0 * rng.random()
            theta = 1.0 + 80.0 * rng.random()
            c = build_16apsk(Apsk16Params(gamma, theta))
            bary = np.mean(quadrant_symbols(c, "00"))
            es = np.mean(np.abs(c.symbols) ** 2)
            assert abs(bary) ** 2 / es == pytest.approx(
                energy_fraction(gamma, theta), abs=1e-12
            )


class TestBuildUniform:
    def test_qpsk(self):
        c = build_uniform("QPSK")
        assert len(c.symbols) == 4
        angles = sorted(np.degrees(np.angle(c.symbols)) % 360.0)
        assert np.allclose(angles, [45.0, 135.0, 225.0, 315.0])
        assert np.mean(np.abs(c.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_8psk(self):
        c = build_uniform("8PSK")
        assert len(c.symbols) == 8
        assert np.allclose(np.abs(c.symbols), 1.0)
        angles = np.sort(np.angle(c.symbols))
        assert np.allclose(np.diff(angles), math.pi / 4.0)

    def test_16apsk_uniform(self):
        c = build_uniform("16APSK-uniform")
        assert np.mean(np.abs(c.symbols) ** 2) == pytest.approx(1.0, abs=1e-12)
        radii = np.sort(np.abs(c.symbols))
        assert np.allclose(radii[:4], radii[0]) and np.allclose(radii[4:], radii[-1])
        assert not c.is_hierarchical

    def test_unknown_modulation(self):
        with pytest.raises(ParameterError):
            build_uniform("64QAM")


class TestLabels:
    @pytest.mark.parametrize(
        "c",
        [build_16apsk(Apsk16Params(2.3, 28.4))],
        ids=["apsk"],
    )
    def test_quadrant_gray_and_stream_split(self, c):
        assert c.he_bits == (0, 1) and c.le_bits == (2, 3)
        assert len(set(c.labels)) == 16
        # HE bits select the quadrant
        for sym, lab in zip(c.symbols, c.labels):
            expected = {
                (True, True): "00", (False, True): "01",
                (False, False): "11", (True, False): "10",
            }[(sym.real > 0, sym.imag > 0)]
            assert lab[:2] == expected
        # quadrant Gray: adjacent quadrants differ in one HE bit
        ring = ["00", "01", "11", "10"]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            assert sum(x != y for x, y in zip(a, b)) == 1

    def test_le_gray_chain_within_quadrant(self):
        c = build_16apsk(Apsk16Params(2.3, 28.4))
        # builder emits the quadrant sweep in order; consecutive LE labels
        # differ in exactly one bit
        les = [lab[2:] for lab in c.labels[:4]]
        for a, b in zip(les, les[1:]):
            assert sum(x != y for x, y in zip(a, b)) == 1


class TestCsvExport:
    def test_round_trip_columns(self, tmp_path):
        c = build_16apsk(Apsk16Params(2.3, 28.4))
        path = tmp_path / "constellation.csv"
        c.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "symbol_index,I,Q,bits"
        assert len(lines) == 17
