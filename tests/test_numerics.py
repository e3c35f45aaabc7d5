import inspect
import math

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from extreme_chains import numerics
from extreme_chains.errors import ConvergenceError, ValidationError

from _oracles import (arch_cumhaz, arch_inverse_cumhaz, arch_tail_index_mp, dkw_bound,
                      expar_series, ks_statistic, simulate_arch_states, simulate_centered_expar,
                      symmetric_cdf, trapezoid_mean_from_cdf)


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

    def test_within_8_ulp_of_the_mpmath_root(self):
        # the theta1 range whose law the fit can tabulate (kappa from 2 to ~75)
        worst = 0.0
        for t1 in np.linspace(0.038, 0.999, 300):
            root = arch_tail_index_mp(float(t1))
            kappa = numerics.arch_tail_index(float(t1))
            worst = max(worst, float(abs(kappa - root)) / math.ulp(float(root)))
        assert worst <= 8.0

    def test_small_theta1_within_2e_15_of_the_mpmath_root(self):
        # kappa ~ e/theta1 up to 2.7e299, on both sides of the switch to Stirling at u = 4096
        worst = 0.0
        for t1 in np.geomspace(1e-299, 0.038, 240):
            root = arch_tail_index_mp(float(t1))
            worst = max(worst, float(abs(numerics.arch_tail_index(float(t1)) - root) / root))
        assert worst <= 2e-15

    def test_validation(self):
        with pytest.raises(ValidationError):
            numerics.arch_tail_index(0.0)
        with pytest.raises(ValidationError):
            numerics.arch_tail_index(1.2)
        with pytest.raises(ValidationError, match=r"theta1 must lie in \[1e-299, 1\]"):
            numerics.arch_tail_index(1e-305)


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
        # own P(|Y| > r) = exp(-cumhaz(r))
        theta0, theta1 = 2.0, 0.7
        cumhaz = arch_cumhaz(numerics.arch_stationary_fit(theta0, theta1))

        def integrand(r, s):
            sig2 = theta0 + theta1 * r * r
            v = s / math.sqrt(sig2)
            dens = math.exp(-0.5 * v * v) / math.sqrt(2.0 * math.pi)
            return 2.0 * dens * s * theta1 * r / sig2 ** 1.5 * math.exp(-cumhaz(r))

        # beyond r = 1e9 the integral is below sf(1e9) ~ 1e-28
        edges = [0.0] + list(np.geomspace(0.1, 1e9, 11))
        for s in np.geomspace(0.1, 1e4, 10):
            total = math.erfc(s / math.sqrt(2.0 * theta0))
            for lo, hi in zip(edges[:-1], edges[1:]):
                total += quad(integrand, lo, hi, args=(s,), epsabs=0.0,
                              epsrel=1e-11, limit=200)[0]
            assert total / math.exp(-cumhaz(s)) == pytest.approx(1.0, abs=1e-9), s

    def test_matches_direct_simulation(self, arch_law_07):
        # one state per lane after a burn-in that forgets the start, so the
        # 1e6 draws are independent and the DKW bound applies
        states = simulate_arch_states(1.0, 0.7, 1_000_000, seed=11,
                                      lanes=1_000_000, burn=60)
        cdf = symmetric_cdf(arch_cumhaz(arch_law_07))
        assert ks_statistic(states, cdf) < dkw_bound(states.size, alpha=1e-3)

    def test_tail_matches_direct_simulation(self):
        # theta1 = 0.3 (kappa ~ 8.4): the law is not yet Pareto at these
        # levels, so a Pareto blend in the body would miss them
        law = numerics.arch_stationary_fit(0.5, 0.3)
        states = np.abs(simulate_arch_states(0.5, 0.3, 1_000_000, seed=12,
                                             lanes=1_000_000, burn=60))
        for p in (1e-3, 1e-4):
            k = np.count_nonzero(states > arch_inverse_cumhaz(law)(-math.log(p)))
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


class TestArchStationary:
    """The law of |Y| as its cumulative hazard Lambda(s) = -log P(|Y| > s);
    P(Y <= y) is exp(-Lambda(|y|)) / 2 below 0 and one less that above."""

    def test_symmetry_at_zero(self, arch_law_07):
        assert symmetric_cdf(arch_cumhaz(arch_law_07))(0.0) == 0.5

    def test_lower_endpoint(self, arch_law_07):
        # |Y| >= 0, and Laplace 0 is Y = 0
        assert arch_cumhaz(arch_law_07)(0.0) == 0.0
        assert arch_inverse_cumhaz(arch_law_07)(0.0) == 0.0

    def test_symmetry_identity(self, arch_law_07):
        cdf = symmetric_cdf(arch_cumhaz(arch_law_07))
        xs = np.linspace(-8.0, 8.0, 81)
        assert np.max(np.abs(cdf(xs) + cdf(-xs) - 1.0)) < 1e-15

    def test_tail_formula_beyond_tail(self, arch_law_07):
        law, cumhaz = arch_law_07, arch_cumhaz(arch_law_07)
        x = 3.0 * law.tail
        assert math.exp(-cumhaz(x)) == pytest.approx(
            math.exp(-cumhaz(law.tail)) * 3.0 ** -law.kappa, rel=1e-12)

    def test_tail_slope_matches_kappa(self, arch_law_07):
        # beyond the tail point the tail is exactly Pareto with the solved kappa
        law = arch_law_07
        xs = np.geomspace(law.tail * 1.05, law.tail * 8.0, 40)
        slope = np.polyfit(np.log(xs), -arch_cumhaz(law)(xs), 1)[0]
        assert abs(-slope - law.kappa) / law.kappa < 1e-9

    def test_quantile_round_trip(self, arch_law_07):
        ps = np.linspace(1e-5, 1.0 - 1e-5, 301)
        xs = np.copysign(arch_inverse_cumhaz(arch_law_07)(-np.log(2.0 * np.minimum(ps, 1.0 - ps))),
                         ps - 0.5)
        assert np.all(np.diff(xs) >= 0.0)
        back = symmetric_cdf(arch_cumhaz(arch_law_07))(xs)
        assert np.max(np.abs(back - ps)) < 1e-9   # table interpolation error

    def test_theta1_one_has_kappa_two(self):
        assert numerics.arch_tail_index(1.0) == 2.0


EXPAR_PHIS = [0.1, 0.5, 0.8, 0.9, 0.95, 0.99]


@pytest.fixture(scope="module")
def expar_law_08():
    return numerics.ExpARLaw(0.8)


class TestFvFixedPoint:
    """The stationary law of V' = phi V + (E - 1), the fixed point of its
    distribution map, as :class:`numerics.ExpARLaw` gives it for
    S = V + 1/(1 - phi)."""

    @pytest.mark.parametrize("phi", EXPAR_PHIS)
    def test_matches_the_series(self, phi):
        # oracle: the alternating series in mpmath, from below the linear
        # floor up to past the tail point
        law = numerics.ExpARLaw(phi)
        s = np.unique(np.concatenate([
            law.inverse_cumhaz(np.geomspace(1e-25, 30.0, 60)),
            np.geomspace(1.0, 1.5, 6) * law.tail]))
        lam_ex, cdf_ex = expar_series(phi, s)
        lam = law.cumhaz(s)
        body = cdf_ex >= 1e-3
        assert body.sum() >= 10 and (~body).sum() >= 10
        assert np.max(np.abs(np.expm1(lam_ex - lam))[body]) <= 1e-12
        assert np.max(np.abs(-np.expm1(-lam) - cdf_ex)) <= 1e-14

    @pytest.mark.parametrize("phi", EXPAR_PHIS)
    def test_inverse_round_trip(self, phi):
        law = numerics.ExpARLaw(phi)
        y = np.concatenate([np.geomspace(1e-12, 700.0, 400), np.linspace(1e-3, 50.0, 400)])
        err = np.abs(law.cumhaz(law.inverse_cumhaz(y)) - y)
        assert np.all(err <= 1e-12 * np.maximum(y, 1e-3))

    def test_row_wise_chebval_is_numpys(self):
        rng = np.random.default_rng(3)
        coef = rng.standard_normal((16, 50)) * 0.5 ** np.arange(16)[:, None]
        p, x = rng.integers(0, 50, 1000), rng.uniform(-1.0, 1.0, 1000)
        assert np.array_equal(numerics._chebval(coef, p, x),
                              np.polynomial.chebyshev.chebval(x, coef[:, p], tensor=False))

    def test_log_a0_is_the_euler_product(self):
        # a_0 = 1 / (phi; phi)_inf, never summed by the law itself
        for phi in EXPAR_PHIS:
            exact = -math.fsum(math.log1p(-phi ** j) for j in range(1, 100_000))
            assert numerics.ExpARLaw(phi).log_a0 == pytest.approx(exact, rel=1e-14)

    def test_lower_endpoint(self, expar_law_08):
        # V >= -1/(1 - phi), so S >= 0
        assert expar_law_08.cumhaz(0.0) == 0.0 and expar_law_08.cumhaz(-1.0) == 0.0
        assert expar_law_08.inverse_cumhaz(0.0) == 0.0

    def test_monotone_cdf(self, expar_law_08):
        cdf = -np.expm1(-expar_law_08.cumhaz(np.linspace(0.0, 60.0, 6001)))
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-20)

    def test_other_phis_converge(self):
        # builds without a fixed-point iteration up to phi = 0.99
        for phi in (0.3, 0.6, 0.9, 0.99):
            law = numerics.ExpARLaw(phi)
            assert law.cumhaz(law.inverse_cumhaz(1.0)) == pytest.approx(1.0, rel=1e-13)

    def test_mean_matches_direct_simulation(self, expar_law_08):
        # oracle: direct simulation of V' = phi V + (E - 1); S = V + 1/(1 - phi)
        v = simulate_centered_expar(0.8, 200_000, 250, seed=42) + 5.0
        se = v.std() / math.sqrt(v.size)
        s = np.linspace(0.0, 80.0, 40_001)
        law_mean = trapezoid_mean_from_cdf(s, -np.expm1(-expar_law_08.cumhaz(s)))
        assert law_mean == pytest.approx(5.0, abs=1e-8)
        assert abs(law_mean - v.mean()) < 3.0 * se

    def test_distribution_matches_direct_simulation(self, expar_law_08):
        v = simulate_centered_expar(0.8, 100_000, 250, seed=7) + 5.0
        assert ks_statistic(v, lambda s: -np.expm1(-expar_law_08.cumhaz(s))) < 0.01

    def test_phi_validation(self):
        # beyond 0.99 the law is refused, naming the range, not approximated
        for phi in (0.0, -0.1, 0.9900001, 0.995, 1.0, 1.2):
            with pytest.raises(ValidationError, match=r"\(0, 0\.99\]"):
                numerics.ExpARLaw(phi)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(phi=st.floats(0.05, 0.99),
       ys=st.lists(st.floats(1e-12, 700.0), min_size=1, max_size=16))
def test_expar_law_properties(phi, ys):
    law = numerics.ExpARLaw(phi)
    s = np.unique(np.concatenate([
        law.inverse_cumhaz(np.geomspace(1e-30, 700.0, 300)),
        np.geomspace(1e-8, 2.0 * law.tail, 300)]))
    assert np.all(np.diff(law.cumhaz(s)) > 0.0)
    y = np.unique(np.concatenate([[1e-12, 700.0], ys, np.geomspace(1e-12, 700.0, 300)]))
    inv = law.inverse_cumhaz(y)
    assert np.all(np.diff(inv) >= 0.0)
    assert np.all(np.abs(law.cumhaz(inv) - y) <= 1e-12 * np.maximum(y, 1e-3))
    beyond = law.tail * np.array([1.0, 1.5, 10.0])
    assert np.array_equal(law.cumhaz(beyond), beyond - law.log_a0)
    # the panels meet the tail formula
    below = law.tail * (1.0 - 1e-9)
    assert law.cumhaz(below) == pytest.approx(below - law.log_a0, rel=1e-13)
