import math

import numpy as np
import pytest
import scipy.special

from extreme_chains import numerics
from extreme_chains.errors import ValidationError

from _oracles import simulate_centered_expar, trapezoid_mean_from_cdf


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
