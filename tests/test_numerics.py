import inspect
import math

import numpy as np
import pytest
import scipy.special
from scipy.integrate import quad

from extreme_chains import numerics
from extreme_chains.errors import ConvergenceError, ValidationError

from _oracles import (dkw_bound, ks_statistic, simulate_arch_states,
                      simulate_centered_expar, trapezoid_mean_from_cdf)


class TestArchTailIndex:

    def test_unit_theta_exact(self):
        assert numerics.arch_tail_index(1.0) == 2.0

    def test_monotone_in_theta(self):
        assert numerics.arch_tail_index(0.5) > numerics.arch_tail_index(0.9)

    def test_solves_moment_equation(self):
        for t1 in (0.3, 0.5, 0.7, 0.95):
            kappa = numerics.arch_tail_index(t1)
            u = kappa / 2.0
            val = (2.0 * t1) ** u * scipy.special.gamma(u + 0.5) / math.sqrt(math.pi)
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_correctly_rounded_at_theta1_0_7(self):
        # mpmath (40 digits) puts the root at kappa = 3.17204255418913786...
        assert numerics.arch_tail_index(0.7) == 3.172042554189138

    def test_validation(self):
        with pytest.raises(ValidationError):
            numerics.arch_tail_index(0.0)
        with pytest.raises(ValidationError):
            numerics.arch_tail_index(1.2)


class TestArchStationaryFit:

    def test_takes_only_the_model_parameters(self):
        params = inspect.signature(numerics.arch_stationary_fit).parameters
        assert list(params) == ["theta0", "theta1"]

    def test_doubling_the_panels_moves_sf_below_1e_12(self, monkeypatch):
        kappa = numerics.arch_tail_index(0.7)
        s = np.geomspace(0.5, 1e4, 200)
        coarse = numerics._ArchNystrom(0.7, kappa).evaluate(s)
        monkeypatch.setattr(numerics, "_ARCH_PANELS",
                            tuple(2 * p for p in numerics._ARCH_PANELS))
        fine = numerics._ArchNystrom(0.7, kappa).evaluate(s)
        for a, b in zip(coarse, fine):
            assert np.max(np.abs(a / b - 1.0)) <= 1e-12

    @pytest.mark.parametrize("theta1", [0.05, 0.7, 0.99])
    def test_kernel_matches_the_plain_expression(self, theta1):
        s = np.concatenate([[0.0], np.geomspace(1e-3, 1e5, 97)])
        r = np.concatenate([[0.0], np.geomspace(1e-6, 1e16, 300)])
        sig2 = 1.0 + theta1 * r * r
        v = s[:, None] / np.sqrt(sig2)
        phi = np.exp(-0.5 * v * v) * ((2.0 * theta1 / math.sqrt(2.0 * math.pi)) * r
                                      / (sig2 * np.sqrt(sig2)))
        k, dk = numerics._arch_kernel(s, r, theta1)
        assert np.array_equal(k, phi * s[:, None])
        assert np.array_equal(dk, phi * (1.0 - v * v))

    def test_table_residual_recorded(self, arch_law_07):
        assert 0.0 < arch_law_07.residual <= 1e-8

    def test_by_parts_equation_by_quad(self):
        # independent of the solve: P(|Y| > s) = 2 Phibar(s / sqrt(theta0))
        # + int_0^inf d/dr[2 Phibar(s / sigma(r))] P(|Y| > r) dr, with
        # sigma(r)^2 = theta0 + theta1 r^2, integrated by QUADPACK on the law's
        # own sf, P(|Y| > r) = 2 law.sf(r)
        theta0, theta1 = 2.0, 0.7
        law = numerics.arch_stationary_fit(theta0, theta1)

        def integrand(r, s):
            sig2 = theta0 + theta1 * r * r
            v = s / math.sqrt(sig2)
            dens = math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
            return 2.0 * dens * s * theta1 * r / sig2 ** 1.5 * 2.0 * float(law.sf(r))

        # beyond r = 1e9 the integral is below sf(1e9) ~ 1e-28
        edges = [0.0] + list(np.geomspace(0.1, 1e9, 11))
        for s in np.geomspace(0.1, 1e4, 10):
            total = math.erfc(s / math.sqrt(2.0 * theta0))
            for lo, hi in zip(edges[:-1], edges[1:]):
                total += quad(integrand, lo, hi, args=(s,), epsabs=0.0,
                              epsrel=1e-11, limit=200)[0]
            assert total / (2.0 * float(law.sf(s))) == pytest.approx(1.0, abs=1e-9), s

    def test_matches_direct_simulation(self, arch_law_07):
        # one state per lane after a burn-in that forgets the start, so the
        # 1e6 draws are independent and the DKW bound applies
        states = simulate_arch_states(1.0, 0.7, 1_000_000, seed=11,
                                      lanes=1_000_000, burn=60)
        assert ks_statistic(states, arch_law_07.cdf) < dkw_bound(states.size, alpha=1e-3)

    def test_tail_matches_direct_simulation(self):
        # theta1 = 0.3 (kappa ~ 8.4): the law is not yet Pareto at these
        # levels, so a Pareto blend in the body would miss them
        law = numerics.arch_stationary_fit(0.5, 0.3)
        states = np.abs(simulate_arch_states(0.5, 0.3, 1_000_000, seed=12,
                                             lanes=1_000_000, burn=60))
        for p in (1e-3, 1e-4):
            k = np.count_nonzero(states > law.isf(p / 2.0))
            assert abs(k - p * states.size) < 5.0 * math.sqrt(p * states.size), p

    def test_underflowing_tail_raises(self):
        # kappa ~ 135: P(|Y| > 1e5) is far below the smallest double
        with pytest.raises(ConvergenceError):
            numerics.arch_stationary_fit(1.0, 0.02)

    def test_validation(self):
        with pytest.raises(ValidationError):
            numerics.arch_stationary_fit(0.0, 0.7)
        with pytest.raises(ValidationError):
            numerics.arch_stationary_fit(1.0, 1.0)


@pytest.fixture(scope="module")
def sol():
    return numerics.solve_Fv_fixed_point(0.8)


class TestFvFixedPoint:

    def test_lower_endpoint(self, sol):
        assert sol.grid.xs[0] == pytest.approx(-5.0)
        assert sol.grid.ys[0] == 0.0

    def test_residual_below_tol(self, sol):
        assert sol.residual < 1e-8

    def test_residual_reverified_at_double_resolution(self, sol):
        # independent pass: fresh solve at twice the grid size, plus the
        # quadrature-map residual of the interpolated solution
        sol2 = numerics.solve_Fv_fixed_point(0.8, grid_size=4096)
        assert sol2.residual < 1e-8
        xs = sol.grid.xs
        assert np.max(np.abs(sol2.cdf(xs) - sol.grid.ys)) < 1e-4
        assert numerics.fv_residual(sol, refine=2) < 1e-4

    def test_monotone_cdf(self, sol):
        assert np.all(np.diff(sol.grid.ys) >= 0.0)
        assert sol.grid.ys[-1] == pytest.approx(1.0, abs=1e-10)

    def test_mean_matches_direct_simulation(self, sol):
        # oracle: direct simulation of V' = phi V + (E - 1)
        v = simulate_centered_expar(0.8, 200_000, 250, seed=42)
        se = v.std() / math.sqrt(v.size)
        grid_mean = trapezoid_mean_from_cdf(sol.grid.xs, sol.grid.ys)
        assert abs(grid_mean - v.mean()) < 3.0 * se + 5e-3

    def test_distribution_matches_direct_simulation(self, sol):
        v = simulate_centered_expar(0.8, 100_000, 250, seed=7)
        from _oracles import ks_statistic
        assert ks_statistic(v, sol.cdf) < 0.01

    def test_phi_validation(self):
        with pytest.raises(ValidationError):
            numerics.solve_Fv_fixed_point(1.2)

    def test_other_phis_converge(self):
        for phi in (0.3, 0.6, 0.9):
            s = numerics.solve_Fv_fixed_point(phi, grid_size=1024)
            assert s.residual < 1e-8
            assert s.grid.xs[0] == pytest.approx(-1.0 / (1.0 - phi))


class TestGridFunction:

    def test_validation(self):
        with pytest.raises(ValidationError):
            numerics.GridFunction(np.array([0.0, 0.0, 1.0]), np.zeros(3))
        with pytest.raises(ValidationError):
            numerics.GridFunction(np.arange(3.0), np.zeros(4))
