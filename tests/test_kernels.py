import functools
import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from extreme_chains import kernels, margins, norming
from extreme_chains.errors import AccuracyError, DomainError, ValidationError

from _oracles import (RootFindingError, ZerosFirst, density_moments_mp, dkw_bound,
                      exponent_V, exponent_V1, gaussian_score_mp, inverse_cdf_sample,
                      ks_statistic, root_ppf)

np.seterr(all="ignore")


def stationarity_ks(kernel, n, seed):
    rng = np.random.default_rng(seed)
    law = kernel.stationary_law
    x0 = law.ppf(rng.uniform(size=n))
    return ks_statistic(kernel.sample(x0, rng), law.cdf)


# ---------------------------------------------------------------------------
# exponent measures
# ---------------------------------------------------------------------------

class TestExponentMeasures:

    def test_hr_value_at_unit(self):
        for g in (0.5, 1.0, 2.0):
            hr = kernels.HuslerReiss(g)
            assert exponent_V(hr, 1.0, 1.0) == pytest.approx(2.0 * norm.cdf(g / 2.0), abs=1e-14)

    def test_margin_constraint(self):
        for em in (kernels.HuslerReiss(1.0), kernels.density_constant()):
            for x in (0.5, 1.0, 3.0):
                assert exponent_V(em, x, 1e9) == pytest.approx(1.0 / x, rel=1e-6)

    def test_homogeneity(self):
        for em in (kernels.HuslerReiss(0.8), kernels.density_constant()):
            for (x, y) in [(1.0, 2.0), (0.3, 0.9), (4.0, 0.5)]:
                for s in (0.5, 2.0, 7.0):
                    assert exponent_V(em, s * x, s * y) == pytest.approx(
                        exponent_V(em, x, y) / s, rel=1e-8)

    def test_constant_density_value(self):
        # V(1,1) = int max(w, 1-w) * 2 dw = 3/2
        em = kernels.density_constant()
        assert exponent_V(em, 1.0, 1.0) == pytest.approx(1.5, abs=1e-14)
        # h = 2 has H0(s) = 2s and H1(s) = s^2 at s = 1/(1+w); in closed form
        # 1 - H1 = w(2+w)s^2, H0 - H1 = (1+2w)s^2 and 1 - V(1, w) = -s/w
        w = np.logspace(-6.0, 6.0, 61)
        s = 1.0 / (1.0 + w)
        upper = w * (2.0 + w) * s * s
        lower = (1.0 + 2.0 * w) * s * s
        # V1 = -(1 - H1) keeps absolute, not relative, precision as w -> 0
        v1, one_minus_v = em.unit_terms(w)
        np.testing.assert_allclose(v1, -upper, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(exponent_V(em, 1.0, w), upper + lower / w, rtol=1e-12)
        np.testing.assert_allclose(one_minus_v, -s / w, rtol=1e-12)

    @pytest.mark.parametrize("gamma", [1e-3, 1e-6, 1e-8])
    def test_hr_one_minus_v_is_relative_at_small_gamma(self, gamma):
        # 1 - V(1, w) = -psi(w), psi = Phi(g/2 + log w/g) + Phi(g/2 - log w/g)/w
        # - 1, within 1e-12 relative of mpmath (300 digits hold psi ~ e^-450)
        w = np.exp(gamma * np.array([1.0, 3.0, 10.0, 30.0]))
        one_minus_v = kernels.HuslerReiss(gamma).unit_terms(w)[1]
        with mpmath.workdps(300):
            g = mpmath.mpf(gamma)
            psi = [float(mpmath.ncdf(g / 2 + mpmath.log(wi) / g)
                         + mpmath.ncdf(g / 2 - mpmath.log(wi) / g) / wi - 1)
                   for wi in map(mpmath.mpf, w)]
        np.testing.assert_allclose(-one_minus_v, psi, rtol=1e-12, atol=0.0)

    def test_exp_decay_one_minus_v_is_relative_in_the_tail(self):
        # below the bump (s < 0.15) h is exp(-1/u), so H0 = s E_2(1/s), H1 =
        # s^2 E_3(1/s) and psi = (s H0 - H1)/(1 - s) = s^2 (E_2 - E_3)/(1 - s)
        w = np.array([10.0, 100.0, 600.0])
        one_minus_v = kernels.density_exp_decay(0.0, 1.0, 1.0).unit_terms(w)[1]
        with mpmath.workdps(40):
            psi = []
            for wi in w:
                s = 1 / (1 + mpmath.mpf(wi))
                psi.append(float(s * s * (mpmath.expint(2, 1 / s) - mpmath.expint(3, 1 / s))
                                 / (1 - s)))
        np.testing.assert_allclose(-one_minus_v, psi, rtol=1e-11, atol=0.0)

    def test_density_moment_validation(self):
        with pytest.raises(ValidationError):
            kernels.DensityFamily(lambda w: 1.0)          # mass 1, not 2
        with pytest.raises(ValidationError):
            kernels.DensityFamily(lambda w: 4.0 * w)      # mass 2, moment 4/3

    def test_accuracy_error_carries_best(self):
        # mass 2 + O(1e-5), but too oscillatory for quad at 1e-12
        with pytest.raises(AccuracyError) as err:
            kernels.DensityFamily(lambda w: 2.0 + np.sin(1e5 * w))
        assert np.isfinite(err.value.best)

    def test_v1_matches_difference_quotient(self):
        # V1 and V from unit_terms by homogeneity
        for em in (kernels.HuslerReiss(1.3), kernels.density_constant()):
            for (x, y) in [(1.0, 1.0), (2.0, 0.7), (0.4, 1.9)]:
                h = 1e-6 * x
                fd = (exponent_V(em, x + h, y) - exponent_V(em, x - h, y)) / (2.0 * h)
                assert exponent_V1(em, x, y) == pytest.approx(fd, rel=1e-5), em.name

    def test_power_decay_family_constructs(self):
        # s near 0 puts a cusp (s > 0) or a jump (s = 0) at the origin
        for s in (0.0, 0.2, 0.3, 0.4):
            fam = kernels.density_power_decay(s)
            # moments validated at construction; decay coefficient recorded
            assert fam.decay_s == s
            assert fam.decay_kappa > 0.0

    def test_exp_decay_family_constructs(self):
        fam = kernels.density_exp_decay(0.0, 1.0, 1.0)
        # moments validated at construction; every V(1, 1) lies in [1, 2]
        assert 1.0 <= float(exponent_V(fam, 1.0, 1.0)) <= 2.0

    def test_exp_decay_infeasible_bump_is_a_validation_error(self):
        # m0 = 1.765872 (mpmath) would need the bump's mean at 1.712953, so its
        # right edge lies beyond 1; the moment integrals themselves converge
        with pytest.raises(ValidationError, match="bump mean 1.71295"):
            kernels.density_exp_decay(-0.5, 0.1, 0.1)


def test_generic_inverted_max_stable_matches_closed_logistic():
    # mutual validation of the quadrature route and the closed form; gamma
    # near 1/2 puts a cusp at both ends of the spectral density
    ys = np.array([0.5, 2.0, 6.0, 11.0, 29.0, 31.0, 45.0])
    for gam in (0.2, 0.4, 0.45, 0.5):
        k_gen = kernels.make_kernel("inverted_max_stable", family="logistic",
                                    gamma=gam)
        k_cls = kernels.make_kernel("inverted_bev_logistic", gamma=gam)
        for x in (1.0, 3.0, 8.0, 30.0):
            a = k_gen.cdf(np.full(ys.shape, x), ys)
            b = k_cls.cdf(np.full(ys.shape, x), ys)
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12,
                                       err_msg=f"gamma={gam}, x={x}")


# Two points where a quadrature's error estimate has let an error past 1e-12:
# H1 of power_decay(0.4) at w = 3.466... (QUADPACK, 6.9e-10), and
# logistic(0.2) at w = 0.5711 (tanhsinh asked for exactly 1e-12, 1e-11)
MOMENT_WS = np.concatenate([np.exp(np.arange(-12.0, 13.0, 2.0)),
                            [3.4660176384923087, 0.5711]])


@pytest.mark.parametrize("family, params", [
    ("logistic", (0.2,)), ("logistic", (0.3,)), ("logistic", (0.45,)),
    ("logistic", (0.5,)), ("power_decay", (0.0,)), ("power_decay", (0.2,)),
    ("power_decay", (0.4,)), ("exp_decay", (0.0, 1.0, 1.0)),
], ids=["logistic_0.2", "logistic_0.3", "logistic_0.45", "logistic_0.5",
        "power_decay_0", "power_decay_0.2", "power_decay_0.4", "exp_decay_0_1_1"])
def test_density_moments_match_mpmath(family, params):
    _, H1, _, _, lower = getattr(kernels, f"density_{family}")(*params)._moments(MOMENT_WS)
    H0 = lower + H1
    ref0, ref1 = density_moments_mp(family, params, MOMENT_WS)
    np.testing.assert_allclose(H0, ref0, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(H1, ref1, rtol=0.0, atol=1e-12)
    # and to their own size: H1 = s m + c, m and c the mass and the moment
    # about s below s, is at worst 1.6e-12 off (logistic_0.2 at w = 3.466)
    np.testing.assert_allclose(H0, ref0, rtol=1e-11, atol=0.0)
    np.testing.assert_allclose(H1, ref1, rtol=1e-11, atol=0.0)


def test_density_family_cdf_integrates_once(monkeypatch):
    # V_1(1, w) and 1 - V(1, w) share one (H0, H1) integral per w: one call
    # for the w with s = 1/(1 + w) <= 1/2, relative, one for the others
    kern = kernels.InvertedMaxStableKernel(kernels.density_logistic(0.3))
    calls = []
    integrate = kernels._integrate

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(kernels, "_integrate", counted)
    ys = np.linspace(0.5, 20.0, 200)
    assert np.all(np.isfinite(kern.cdf(np.full(ys.shape, 9.0), ys)))
    assert len(calls) == 2 and sum(np.size(lo) for _, lo, *_ in calls) == ys.size


# ---------------------------------------------------------------------------
# kernel CDFs
# ---------------------------------------------------------------------------

class TestKernelCdf:

    def test_gaussian_centered(self):
        k = kernels.make_kernel("gaussian_copula", rho=0.6, margin="gaussian")
        for x in (-1.0, 0.5, 3.0):
            val = k.cdf(np.array([x]), np.array([0.6 * x]))[0]
            assert val == pytest.approx(0.5, abs=1e-12)

    def test_inverted_bev_total_mass(self):
        k = kernels.make_kernel("inverted_bev_logistic", gamma=0.3)
        assert k.cdf(np.array([2.0]), np.array([1e9]))[0] == pytest.approx(1.0)
        assert k.cdf(np.array([2.0]), np.array([0.0]))[0] == 0.0

    def test_bev_logistic_diagonal_frechet(self):
        # conditional CDF on the Frechet diagonal: 2^{g-1} e^{(1 - 2^g)/x_F},
        # tending to 2^{-1/2} at g = 1/2; x_F enters as the exponential state
        # whose Gumbel value is log x_F
        k = kernels.BevLogisticKernel(0.5)

        def diagonal(xf):
            x = margins.transform(math.log(xf), margins.GUMBEL, margins.EXPONENTIAL)
            return float(k.cdf(x, x))

        for xf in (5.0, 50.0):
            expect = 2.0 ** (-0.5) * math.exp((1.0 - 2.0 ** 0.5) / xf)
            assert diagonal(xf) == pytest.approx(expect, rel=1e-12)
        assert diagonal(1e9) == pytest.approx(2.0 ** -0.5, rel=1e-8)

    def test_expar_truncation(self, expar_kernel):
        # U(y) <= phi U(x) has zero conditional mass
        assert expar_kernel.cdf(np.array([10.0]), np.array([1e-8]))[0] == 0.0

    def test_domain_error_on_nonpositive_state(self):
        k = kernels.make_kernel("bev_logistic", gamma=0.3)
        with pytest.raises(DomainError):
            k.cdf(np.array([-1.0]), np.array([1.0]))

    def test_monotone_nondecreasing_in_y(self, arch_kernel_07, expar_kernel):
        rng = np.random.default_rng(5)
        cases = [
            kernels.make_kernel("bev_logistic", gamma=0.152),
            kernels.make_kernel("inverted_bev_logistic", gamma=0.7),
            kernels.make_kernel("asymmetric_logistic", phi1=0.4, phi2=0.7, nu=0.3),
            kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential"),
            kernels.make_kernel("gaussian_copula", rho=-0.5, margin="laplace"),
            kernels.make_kernel("inverted_max_stable", family="husler_reiss", gamma=1.0),
            kernels.make_kernel("rootzen_smith"),
            expar_kernel,
            arch_kernel_07,
        ]
        for k in cases:
            lo = 0.05 if k.support_lo == 0.0 else -25.0
            ys = np.linspace(lo, 30.0, 100)
            for _ in range(3):
                x = float(k.stationary_law.ppf(rng.uniform(0.3, 0.999)))
                vals = k.cdf(np.full(ys.shape, x), ys)
                assert np.all(np.diff(vals) >= -1e-12), k.name
                assert np.all((vals >= 0.0) & (vals <= 1.0)), k.name


# one spec per catalogue id (a new kernel needs one here); the session
# fixtures stand in for the kernels that solve a stationary law
CONTRACT_SPECS = {
    "arch_laplace": "arch_kernel_07",
    "asymmetric_logistic": {"phi1": 0.4, "phi2": 0.7, "nu": 0.3},
    "bev_logistic": {"gamma": 0.3},
    "expar": "expar_kernel",
    "gaussian_copula": {"rho": 0.6, "margin": "exponential"},
    "ht_mixture": {"lam": 0.5,
                   "k1": {"id": "gaussian_copula", "rho": 0.95,
                          "margin": "exponential"},
                   "k2": {"id": "inverted_bev_logistic", "gamma": 0.9}},
    "inverted_bev_logistic": {"gamma": 0.3},
    "inverted_max_stable": {"family": "husler_reiss", "gamma": 1.0},
    "rootzen_smith": {},
}


@pytest.mark.parametrize("kernel_id", kernels.KERNEL_IDS)
def test_kernel_contract(kernel_id, request):
    spec = CONTRACT_SPECS[kernel_id]
    k = (request.getfixturevalue(spec) if isinstance(spec, str)
         else kernels.make_kernel(kernel_id, **spec))
    lo = k.support_lo
    assert lo == k.stationary_law.support[0]
    # cdf: 0 at and below the support floor, inside [0, 1] above it
    ys = np.array([1e-9, 0.3, 2.0, 9.0, 40.0])
    if lo == 0.0:
        below = np.array([-3.0, -0.0, 0.0])
    else:
        below, ys = np.array([-np.inf]), np.concatenate([-ys[::-1], ys])
    vals = k.cdf(np.full(below.size + ys.size, 2.0), np.concatenate([below, ys]))
    np.testing.assert_array_equal(vals[:below.size], 0.0)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    # a state at or below an exponential floor is outside the domain
    if lo == 0.0:
        for x in (0.0, -1.0):
            with pytest.raises(DomainError):
                k.cdf(x, 1.0)
            with pytest.raises(DomainError):
                k.sample(x, np.random.default_rng(0))
    # a scalar state draws a float, an array of states keeps its shape
    rng = np.random.default_rng(6)
    assert type(k.sample(2.0, rng)) is float
    assert k.sample(np.full((2, 3), 2.0), rng).shape == (2, 3)


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kernel_id", kernels.KERNEL_IDS)
def test_non_finite_state_is_refused(kernel_id, x, request):
    # no kernel turns a NaN or infinite state into a draw or a probability
    spec = CONTRACT_SPECS[kernel_id]
    k = (request.getfixturevalue(spec) if isinstance(spec, str)
         else kernels.make_kernel(kernel_id, **spec))
    with pytest.raises(DomainError, match=str(x)):
        k.cdf(x, 2.0)
    with pytest.raises(DomainError, match=str(x)):
        k.sample(np.array([2.0, x, 3.0]), np.random.default_rng(0))


@pytest.mark.parametrize("kernel_id", kernels.KERNEL_IDS)
def test_deep_state_contract(kernel_id, request):
    # far out (x up to 1e6, where e^-x is far below the smallest double)
    # every kernel still draws finite values, its cdf is monotone in y and in
    # [0, 1], and a continuous kernel's ppf (the root of its cdf where it has
    # none) inverts its cdf up to the cdf's conditioning
    spec = CONTRACT_SPECS[kernel_id]
    k = (request.getfixturevalue(spec) if isinstance(spec, str)
         else kernels.make_kernel(kernel_id, **spec))
    rng = np.random.default_rng(23)
    u = np.linspace(0.01, 0.99, 25)
    for x in (700.0, 2000.0, 1e4, 1e6):
        y = k.sample(np.full(500, x), rng)
        assert np.all(np.isfinite(y)), (x, y[~np.isfinite(y)][:3])
        grid = np.geomspace(1e-6, 10.0 * x, 80)
        if k.support_lo < 0.0:
            grid = np.concatenate([-grid, grid])
        ys = np.sort(np.concatenate([y, grid]))
        c = k.cdf(np.full(ys.shape, x), ys)
        assert np.all((c >= 0.0) & (c <= 1.0)) and np.all(np.diff(c) >= 0.0), x
        if kernel_id != "rootzen_smith":        # the one kernel with an atom
            xs = np.full(u.shape, x)
            y = k.ppf(xs, u) if hasattr(k, "ppf") else root_ppf(k, xs, u)
            gap = np.abs(k.cdf(xs, y) - u).max()
            assert gap <= 1e-12 + 1e-15 * x, (x, gap)


@pytest.mark.parametrize("kernel_id", ["arch_laplace", "asymmetric_logistic", "bev_logistic",
                                       "expar", "gaussian_copula", "ht_mixture",
                                       "inverted_bev_logistic", "inverted_max_stable",
                                       "rootzen_smith"])
def test_direct_sampler_is_uniform_through_cdf(kernel_id, request):
    # every kernel with one contract spec: each draw (ppf(x, U) for the
    # logistic pair), mapped through the kernel's own cdf and randomised
    # across a jump (rootzen_smith's atom at -x), is uniform, with KS below
    # the 1e-3 critical value 1.949/sqrt(n).  The inverted Husler-Reiss
    # kernel, whose draw reads two tables, takes 200k draws
    spec = CONTRACT_SPECS[kernel_id]
    k = (request.getfixturevalue(spec) if isinstance(spec, str)
         else kernels.make_kernel(kernel_id, **spec))
    rng = np.random.default_rng(29)
    n = 200_000 if kernel_id == "inverted_max_stable" else 20_000
    for x in (2.0, 30.0, 700.0, 2000.0, 1e4, 1e6):
        xs = np.full(n, x)
        y = k.sample(xs, rng)
        below = k.cdf(xs, np.nextafter(y, -np.inf))
        v = below + rng.uniform(size=n) * (k.cdf(xs, y) - below)
        d = ks_statistic(v, lambda u: u)
        assert d < 1.949 / math.sqrt(n), (x, d)


# the spectral densities whose inverted kernels the table tests draw from
DENSITY_SPECS = {"logistic_0.3": {"family": "logistic", "gamma": 0.3},
                 "constant": {"family": "constant"},
                 "power_decay_0.2": {"family": "power_decay", "s": 0.2},
                 "exp_decay_0_1_1": {"family": "exp_decay", "delta": 0.0, "gamma": 1.0,
                                     "kappa": 1.0}}


@functools.cache
def density_kernel(case):
    """One inverted density-family kernel per case, so its tables are built once."""
    return kernels.make_kernel("inverted_max_stable", **DENSITY_SPECS[case])


@pytest.mark.parametrize("case", sorted(DENSITY_SPECS))
def test_density_family_draw_is_uniform_through_cdf(case):
    # 5k draws by the conditional representation, through the kernel's own
    # cdf (a quadrature per point), are uniform: KS below 1.949/sqrt(n)
    k = density_kernel(case)
    rng = np.random.default_rng(31)
    n = 5_000
    for x in (2.0, 30.0, 700.0, 1e6):
        xs = np.full(n, x)
        y = k.sample(xs, rng)
        assert np.all(np.isfinite(y) & (y > 0.0)), x
        d = ks_statistic(k.cdf(xs, y), lambda u: u)
        assert d < 1.949 / math.sqrt(n), (x, d)


@pytest.mark.parametrize("case", [f"husler_reiss_{g}" for g in (0.2, 1.0, 3.0)]
                         + sorted(DENSITY_SPECS))
def test_inverse_tables_hold_their_residual(case):
    # each table meets its own function within 1e-9 halfway between its
    # nodes: -log psi for R, and the logit of P(W <= w) for a density's W
    if case.startswith("husler_reiss"):
        k = kernels.make_kernel("inverted_max_stable", family="husler_reiss",
                                gamma=float(case.split("_")[-1]))
        tables = [k._r_table]
    else:
        k = density_kernel(case)
        tables = [k._r_table, k.exponent._w_table]
    for table in tables:
        assert table.residual <= 1e-9, (case, table.residual)


def test_sampling_loads_no_root_finder_or_interpolator():
    # in a fresh process, building and sampling every contract kernel (the
    # density families aside, as scipy's tanhsinh itself loads scipy.optimize)
    # leaves scipy.optimize and scipy.interpolate unloaded
    src = os.path.dirname(os.path.dirname(kernels.__file__))
    code = ("import sys, numpy as np\n"
            "from extreme_chains import kernels\n"
            f"specs = {CONTRACT_SPECS!r}\n"
            "specs.update(arch_laplace={'theta0': 1.0, 'theta1': 0.7}, expar={'phi': 0.8})\n"
            "for kid, spec in specs.items():\n"
            "    y = kernels.make_kernel(kid, **spec).sample(np.full(100, 5.0),\n"
            "                                                np.random.default_rng(0))\n"
            "    assert np.all(np.isfinite(y)), kid\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate') "
            "if m in sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"


BIG = np.finfo(float).max
# one case per catalogue id (an exponent family each for the inverted
# max-stable kernel): base parameters, and the largest admissible value of
# each parameter whose range does not end at 1
EDGE_SPECS = {
    "arch_laplace": ({"theta0": 1.0, "theta1": 0.7}, {"theta0": BIG}),
    "asymmetric_logistic": ({"phi1": 0.4, "phi2": 0.7, "nu": 0.3}, {}),
    "bev_logistic": ({"gamma": 0.3}, {}),
    "expar": ({"phi": 0.5}, {"phi": 0.99}),
    "gaussian_copula": ({"rho": 0.6, "margin": "exponential"}, {}),
    "ht_mixture": (dict(CONTRACT_SPECS["ht_mixture"]), {}),
    "inverted_bev_logistic": ({"gamma": 0.3}, {}),
    "inverted_max_stable/husler_reiss": ({"family": "husler_reiss", "gamma": 1.0},
                                         {"gamma": BIG}),
    "inverted_max_stable/logistic": ({"family": "logistic", "gamma": 0.3}, {"gamma": 0.5}),
    "inverted_max_stable/power_decay": ({"family": "power_decay", "s": 0.2}, {"s": BIG}),
    "inverted_max_stable/exp_decay": (
        {"family": "exp_decay", "delta": 0.0, "gamma": 1.0, "kappa": 1.0},
        {"delta": BIG, "gamma": BIG, "kappa": BIG}),
    "rootzen_smith": ({"p_flip": 0.5}, {}),
}


def test_edge_specs_cover_the_catalogue():
    assert {case.split("/")[0] for case in EDGE_SPECS} == set(kernels.KERNEL_IDS)


@pytest.mark.parametrize("case", sorted(EDGE_SPECS))
def test_parameter_edges_build_a_working_kernel_or_fail_validation(case):
    # each parameter at the smallest doubles, 1 - 2^-53 and its largest
    # admissible value: a kernel whose draws at x = 5 are finite and whose
    # cdf lies in [0, 1], or a ValidationError; never a numeric failure,
    # a traceback or a non-finite draw
    base, largest = EDGE_SPECS[case]
    ys = np.array([1e-9, 0.5, 5.0, 50.0])
    for name, value in base.items():
        if not isinstance(value, float):
            continue
        for edge in (5e-324, 1e-310, 1e-300, 1.0 - 2.0 ** -53) + \
                ((largest[name],) if name in largest else ()):
            try:
                k = kernels.make_kernel(case.split("/")[0], **dict(base, **{name: edge}))
            except ValidationError:
                continue
            y = k.sample(np.full(8, 5.0), np.random.default_rng(0))
            assert np.all(np.isfinite(y)), (name, edge, y)
            grid = ys if k.support_lo == 0.0 else np.concatenate([-ys, ys])
            c = k.cdf(np.full(grid.shape, 5.0), grid)
            assert np.all((c >= 0.0) & (c <= 1.0)), (name, edge, c)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class TestKernelSample:

    def test_rootzen_smith_flip_mass(self):
        rng = np.random.default_rng(0)
        k = kernels.make_kernel("rootzen_smith")
        y = k.sample(np.full(200_000, 5.0), rng)
        flips = np.mean(y == -5.0)
        assert abs(flips - 0.5) < 0.005
        fresh = y[y != -5.0]
        assert ks_statistic(fresh, margins.LAPLACE.cdf) < dkw_bound(fresh.size)

    def test_sampler_matches_cdf_dkw(self, expar_kernel):
        # empirical CDF of 1e5 draws vs kernel_cdf: KS below the 99% DKW bound
        rng = np.random.default_rng(1)
        n = 100_000
        cases = [
            (kernels.make_kernel("bev_logistic", gamma=0.152), 10.0),
            (kernels.make_kernel("inverted_bev_logistic", gamma=0.152), 10.0),
            (kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5,
                                 nu=0.152), 9.0),
            (kernels.make_kernel("gaussian_copula", rho=0.8,
                                 margin="exponential"), 12.0),
            (expar_kernel, 10.0),
        ]
        for k, x0 in cases:
            y = k.sample(np.full(n, x0), rng)
            d = ks_statistic(y, lambda s: k.cdf(np.full(s.shape, x0), s))
            assert d < 0.006, k.name

    @pytest.mark.parametrize("phi1, phi2, nu", [(0.5, 0.4, 0.3), (0.3, 0.6, 0.4),
                                                (0.8, 0.2, 0.7), (0.5, 0.5, 0.152)])
    def test_asymmetric_logistic_draw_is_uniform_through_cdf(self, phi1, phi2, nu):
        # cdf(x, Y) of 20k draws by Tawn's construction is uniform: KS below
        # the 1e-3 critical value 1.949/sqrt(n), from x = 1e-3 to 1e6
        k = kernels.AsymmetricLogisticKernel(phi1, phi2, nu)
        rng = np.random.default_rng(26)
        n = 20_000
        for x in (1e-3, 0.05, 2.0, 9.0, 30.0, 700.0, 1e4, 1e6):
            y = k.sample(np.full(n, x), rng)
            assert np.all(np.isfinite(y) & (y > 0.0)), x
            d = ks_statistic(k.cdf(np.full(n, x), y), lambda u: u)
            assert d < 1.949 / math.sqrt(n), (x, d)

    def test_asymmetric_logistic_draw_redraws_a_zero_exponential(self):
        # an exponential of exactly 0.0 would put Y2 at +inf
        k = kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5, nu=0.152)
        y = k.sample(np.array([0.05, 2.0, 9.0, 700.0]), ZerosFirst("exponential"))
        assert np.all(np.isfinite(y))

    def test_rootzen_smith_draw_redraws_a_zero_uniform(self):
        # the second uniform picks the fresh Laplace draw, whose quantile
        # refuses 0.0
        k = kernels.make_kernel("rootzen_smith")
        y = k.sample(np.full(4, 5.0), ZerosFirst("uniform", skip=1))
        assert np.all(np.isfinite(y))

    def test_gaussian_conditional_mean(self):
        rng = np.random.default_rng(2)
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="gaussian")
        y = k.sample(np.full(100_000, 3.0), rng)
        se = y.std() / math.sqrt(y.size)
        assert abs(y.mean() - 2.4) < 3.0 * se

    def test_inverse_cdf_reproduces_uniform(self):
        # quantile path consistency at 1e-10
        rng = np.random.default_rng(3)
        k = kernels.make_kernel("inverted_bev_logistic", gamma=0.152)
        x = rng.exponential(size=500) + 1.0
        u = rng.uniform(size=500)
        y = inverse_cdf_sample(k.cdf, x, u, 1e-12)
        assert np.max(np.abs(k.cdf(x, y) - u)) < 1e-10

    @pytest.mark.parametrize("nan_region", [
        lambda y: np.ones_like(y, dtype=bool),
        lambda y: (y > 9.0) & (y < 11.0),       # around the root
    ], ids=["everywhere", "midpoints"])
    def test_nan_cdf_raises(self, nan_region):
        def cdf(x, y):
            y = np.broadcast_to(y, np.broadcast(x, y).shape)
            return np.where(nan_region(y), np.nan, 1.0 - np.exp(-np.maximum(y, 0.0)))
        x = np.full(4, 10.0)
        with pytest.raises(RootFindingError):
            inverse_cdf_sample(cdf, x, np.full(4, 1.0 - np.exp(-10.0)), 1e-12)

    @pytest.mark.parametrize("kernel_id", ["bev_logistic", "inverted_bev_logistic"])
    def test_closed_form_ppf_matches_bisection(self, kernel_id):
        # the Wright-omega inverse and the root of cdf give the same draw
        rng = np.random.default_rng(4)
        k = kernels.make_kernel(kernel_id, gamma=0.152)
        x = rng.exponential(size=2000) * 5.0 + 0.05
        u = rng.uniform(size=2000)
        np.testing.assert_allclose(k.ppf(x, u), root_ppf(k, x, u), rtol=2e-10)

    @pytest.mark.parametrize("kernel_id", ["bev_logistic", "inverted_bev_logistic"])
    def test_closed_form_ppf_floor(self, kernel_id):
        # u = 0 maps to the finite floor shared with root finding, never NaN
        k = kernels.make_kernel(kernel_id, gamma=0.3)
        y = k.ppf(np.array([0.5, 10.0, 300.0]), 0.0)
        np.testing.assert_array_equal(y, kernels._FLOOR)

    @pytest.mark.parametrize("kernel_id, params", [
        ("bev_logistic", {"gamma": 0.3}),
        ("inverted_bev_logistic", {"gamma": 0.3}),
        ("inverted_max_stable", {"family": "husler_reiss", "gamma": 1.0}),
    ], ids=["bev_logistic", "inverted_bev_logistic", "root_finding"])
    @pytest.mark.parametrize("u", [math.nan, -0.1, 1.0, 1.5])
    def test_ppf_refuses_u_outside_unit_interval(self, kernel_id, params, u):
        # neither inf, NaN, the floor nor a root-finding error: a DomainError naming u
        k = kernels.make_kernel(kernel_id, **params)
        ppf = k.ppf if hasattr(k, "ppf") else (lambda x, u: root_ppf(k, x, u))
        with pytest.raises(DomainError, match=f"got {u}"):
            ppf(np.full(3, 5.0), np.array([0.2, u, 0.7]))
        with pytest.raises(DomainError, match=f"got {u}"):
            ppf(5.0, u)

    def test_asymmetric_logistic_ppf_floor(self):
        # the cdf keeps ~5e-13 of mass below the floor at x = 9, so u = 0
        # and any u up to that mass draw the floor
        k = kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5, nu=0.152)
        y = root_ppf(k, np.full(2, 9.0), [0.0, 1e-13])
        np.testing.assert_array_equal(y, kernels._FLOOR)

    def test_stationarity_catalogue(self, arch_kernel_07, expar_kernel):
        # one kernel_sample step from 1e4 stationary starts stays stationary
        cases = [
            kernels.make_kernel("bev_logistic", gamma=0.152),
            kernels.make_kernel("inverted_bev_logistic", gamma=0.152),
            kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5, nu=0.152),
            kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential"),
            kernels.make_kernel("gaussian_copula", rho=0.8, margin="gaussian"),
            kernels.make_kernel("gaussian_copula", rho=-0.8, margin="laplace"),
            kernels.make_kernel("inverted_max_stable", family="husler_reiss",
                                gamma=1.0),
            kernels.make_kernel("rootzen_smith"),
            kernels.make_kernel(
                "ht_mixture", lam=0.5,
                k1={"id": "gaussian_copula", "rho": 0.95, "margin": "exponential"},
                k2={"id": "inverted_bev_logistic", "gamma": 0.9}),
            expar_kernel,
            arch_kernel_07,
        ]
        for i, k in enumerate(cases):
            d = stationarity_ks(k, 10_000, seed=100 + i)
            assert d < 0.02, (k.name, d)


class TestDeepBevStates:
    """States beyond x ~ 709, where the Frechet value itself overflows; the
    kernel reads their Gumbel value."""

    kernel = kernels.BevLogisticKernel(0.152)

    @pytest.mark.parametrize("x", [700.0, 800.0, 5000.0])
    def test_cdf_is_a_distribution_function(self, x):
        ys = x + np.linspace(-5.0, 5.0, 401)
        vals = self.kernel.cdf(np.full(ys.shape, x), ys)
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[0] < 1e-6 and vals[-1] > 1.0 - 1e-6

    @pytest.mark.parametrize("x", [700.0, 800.0, 5000.0])
    def test_cdf_inverts_ppf(self, x):
        u = np.linspace(0.001, 0.999, 999)
        y = self.kernel.ppf(np.full(u.shape, x), u)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(self.kernel.cdf(np.full(u.shape, x), y), u,
                                   rtol=0.0, atol=1e-11)

    @pytest.mark.parametrize("x", [800.0, 5000.0])
    def test_draws_follow_the_limit_law(self, x):
        # at these depths y - x follows K(s) = (1 + e^{-s/gamma})^{gamma-1}
        rng = np.random.default_rng(11)
        n = 20_000
        s = self.kernel.sample(np.full(n, x), rng) - x
        law = norming.limit_law("bev_logistic", gamma=0.152)
        assert ks_statistic(s, law.cdf) < dkw_bound(n)
        assert abs(float(law.cdf(np.median(s))) - 0.5) < dkw_bound(n)


def direct_asymmetric_logistic_cdf(k, x, y):
    """The conditional cdf straight from the Frechet-scale formula; exact
    while (phi1/x_F)^{1/nu} stays a normal float (x up to ~700 nu)."""
    p1, p2, nu = k.phi1, k.phi2, k.nu
    xf, yf = -1.0 / np.log1p(-np.exp(-x)), -1.0 / np.log1p(-np.exp(-y))
    S = (p1 / xf) ** (1.0 / nu) + (p2 / yf) ** (1.0 / nu)
    V = (1.0 - p1) / xf + (1.0 - p2) / yf + S ** nu
    return ((1.0 - p1) + xf * (p1 / xf) ** (1.0 / nu) * S ** (nu - 1.0)) \
        * np.exp(1.0 / xf - V)


class TestDeepAsymmetricLogistic:
    """The Frechet value overflows beyond x ~ 709; the kernel reads the Gumbel
    value, its log."""

    kernels_under_test = [
        kernels.AsymmetricLogisticKernel(0.5, 0.5, 0.152),
        kernels.AsymmetricLogisticKernel(0.4, 0.7, 0.3),
        kernels.AsymmetricLogisticKernel(0.9, 0.2, 0.8),
    ]

    @pytest.mark.parametrize("x", [700.0, 720.0, 800.0, 5000.0])
    def test_cdf_is_a_distribution_function(self, x):
        ys = np.sort(np.concatenate([np.linspace(1e-3, 3.0 * x, 3000),
                                     x + np.linspace(-50.0, 50.0, 2001)]))
        for k in self.kernels_under_test:
            vals = k.cdf(np.full(ys.shape, x), ys)
            assert np.all(np.isfinite(vals)), k.name
            assert np.all((vals >= 0.0) & (vals <= 1.0)), k.name
            assert np.all(np.diff(vals) >= 0.0), k.name

    def test_matches_direct_formula(self):
        xs = np.linspace(0.05, 60.0, 120)
        for k in self.kernels_under_test:
            for x in xs:
                ys = np.concatenate([np.linspace(0.01, 80.0, 300),
                                     x + np.linspace(-5.0, 5.0, 41)])
                ys = ys[ys > 0.0]
                with np.errstate(all="ignore"):
                    ref = direct_asymmetric_logistic_cdf(k, x, ys)
                assert np.all(np.isfinite(ref))
                np.testing.assert_allclose(k.cdf(np.full(ys.shape, x), ys), ref,
                                           rtol=0.0, atol=1e-12)


class TestDeepArchStates:
    """Laplace states beyond 690, where P(|Y| > s) = e^-x is below 1e-300,
    map to distinct volatility-chain states."""

    xs = np.array([680.0, 690.0, 691.0, 700.0, 1000.0])

    def test_state_map_is_finite_increasing_and_odd(self, arch_kernel_07):
        # through log|Y|, even in x, so that Y = sign(x) |Y| is odd
        log_y = arch_kernel_07._log_state(self.xs)
        assert np.all(np.isfinite(log_y)) and np.all(np.diff(log_y) > 0.0) and log_y[0] > 0.0
        assert np.array_equal(arch_kernel_07._log_state(-self.xs), log_y)
        assert arch_kernel_07._log_state(0.0) == -np.inf

    def test_cdf_tells_deep_states_apart(self, arch_kernel_07):
        lo, hi = arch_kernel_07.cdf(695.0, np.array([700.0, 720.0]))
        assert lo < hi

    def test_draws_are_finite(self, arch_kernel_07):
        rng = np.random.default_rng(5)
        for x in self.xs:
            assert np.all(np.isfinite(arch_kernel_07.sample(np.full(1000, x), rng)))

    @pytest.mark.parametrize("x", [2300.0, -2300.0, 1e4, 1e300])
    def test_state_beyond_the_volatility_scale_draws(self, arch_kernel_07, x):
        # |Y| = Lambda^-1(|x|) overflows doubles from Laplace 2250.3 at
        # theta1 = 0.7, but log|Y| does not: the state draws finite values,
        # and its cdf lies in [0, 1]
        y = arch_kernel_07.sample(np.full(1000, x), np.random.default_rng(5))
        assert np.all(np.isfinite(y))
        c = arch_kernel_07.cdf(np.full(5, x), np.array([-2.0 * x, -x, 2.0, x, 2.0 * x]))
        assert np.all((c >= 0.0) & (c <= 1.0)) and np.all(np.diff(c * np.sign(x)) >= 0.0)

    def test_draws_next_to_the_edge_are_finite(self, arch_kernel_07):
        # just inside the state where |Y| itself would overflow doubles
        y = arch_kernel_07.sample(np.full(20_000, 2250.0), np.random.default_rng(5))
        assert np.all(np.isfinite(y)) and np.abs(y).max() > 2250.5

    def test_outcome_beyond_the_scale_is_certain(self, arch_kernel_07):
        assert list(arch_kernel_07.cdf(5.0, np.array([5000.0, -5000.0]))) == [1.0, 0.0]

    def test_draws_at_2000_follow_the_recursion(self, arch_kernel_07):
        # log|Y'| = log sigma + log|W|, log sigma = 1/2 log(1 + 0.7 Y^2)
        law = arch_kernel_07.law
        y = arch_kernel_07.sample(np.full(500, 2000.0), np.random.default_rng(11))
        w = np.random.default_rng(11).standard_normal(500)
        log_sigma = 0.5 * np.logaddexp(0.0, math.log(0.7) + 2.0 * law.log_inverse_cumhaz(2000.0))
        assert np.array_equal(y, np.copysign(law.cumhaz_at_log(log_sigma + np.log(np.abs(w))), w))


@pytest.mark.parametrize("margin", ["exponential", "laplace"])
class TestDeepGaussianCopulaStates:
    """States whose tail probability is below 1e-300 map to distinct Gaussian
    scores: the copula reads exponential 700-2000 and Laplace 700-2000 as
    themselves, not as the deepest state a clamped probability can reach."""

    xs = np.array([700.0, 1000.0, 2000.0])
    rho = 0.8

    @staticmethod
    def log_tail(margin, x):
        # log P(X > x) on the margin's scale, in mpmath
        x = mpmath.mpf(float(x))
        return -x if margin == "exponential" else -x - mpmath.log(2)

    def test_scores_increase(self, margin):
        z = kernels.GaussianCopulaKernel(self.rho, margin)._to_z(self.xs)
        assert np.all(np.isfinite(z)) and np.all(np.diff(z) > 0.0)

    def test_same_seed_draws_differ(self, margin):
        k = kernels.GaussianCopulaKernel(self.rho, margin)
        draws = [k.sample(np.full(100, x), np.random.default_rng(3)) for x in self.xs]
        assert all(np.all(np.isfinite(d)) for d in draws)
        assert np.all(draws[0] < draws[1]) and np.all(draws[1] < draws[2])

    def test_cdf_matches_mpmath_scores(self, margin):
        k = kernels.GaussianCopulaKernel(self.rho, margin)
        with mpmath.workdps(60):
            for x in self.xs:
                y = 0.64 * x
                zx, zy = (gaussian_score_mp(self.log_tail(margin, v)) for v in (x, y))
                want = norm.cdf((zy - self.rho * zx) / math.sqrt(1.0 - self.rho ** 2))
                assert abs(k.cdf(x, y) - want) < 1e-12, (x, k.cdf(x, y), want)


def test_negative_gaussian_copula_floors_at_least_positive_double():
    # from x0 = 2000 at rho = -0.8 the next exponential state is about
    # e^-1250, below every double: it floors at the least positive one, and
    # the chain runs on from there; from x0 = 700 it is about e^-445
    k = kernels.GaussianCopulaKernel(-0.8, "exponential")
    first = {}
    for x0 in (700.0, 2000.0):
        x = np.full(1000, x0)
        rng = np.random.default_rng(11)
        for t in range(3):
            x = k.sample(x, rng)
            assert np.all(np.isfinite(x)) and np.all(x > 0.0), (x0, t)
            first.setdefault(x0, x)
    assert np.all(first[2000.0] == np.finfo(float).smallest_subnormal)
    assert np.all(first[700.0] > 1e-250)


# ---------------------------------------------------------------------------
# construction & validation
# ---------------------------------------------------------------------------

class TestMakeKernel:

    def test_zero_rho_rejected(self):
        with pytest.raises(ValidationError):
            kernels.make_kernel("gaussian_copula", rho=0.0)

    def test_mixture_alpha_ordering(self):
        k1 = kernels.make_kernel("gaussian_copula", rho=0.6, margin="exponential")
        k2 = kernels.make_kernel("gaussian_copula", rho=0.9, margin="exponential")
        with pytest.raises(ValidationError):
            kernels.HtMixtureKernel(0.5, k1, k2)   # alpha1 = 0.36 < 0.81

    def test_asymmetric_logistic_figure_parameters(self):
        k = kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5, nu=0.152)
        assert k.phi1 == 0.5 and k.nu == 0.152

    def test_unknown_id(self):
        with pytest.raises(ValidationError):
            kernels.make_kernel("cauchy_copula")

    def test_misspelt_parameter_rejected(self):
        with pytest.raises(ValidationError, match="gamma"):
            kernels.make_kernel("bev_logistic", gama=0.2)
        with pytest.raises(ValidationError):
            kernels.make_kernel("inverted_max_stable", family="husler_reiss",
                                gama=1.0)

    @pytest.mark.parametrize("family, params", [
        ("power_decay", {"s": 0.4, "a": 0.1}),
        ("power_decay", {"s": 0.4, "b": 0.6}),
        ("exp_decay", {"delta": 0.0, "gamma": 1.0, "kappa": 1.0, "a": 0.2}),
    ])
    def test_family_shape_constants_not_settable(self, family, params):
        # a and b are fixed shape constants of the decay families, not config
        with pytest.raises(ValidationError, match="takes"):
            kernels.make_kernel("inverted_max_stable", family=family, **params)

    def test_mixture_leaves_component_specs_intact(self):
        k1 = {"id": "gaussian_copula", "rho": 0.95, "margin": "exponential"}
        k2 = {"id": "inverted_bev_logistic", "gamma": 0.9}
        before = (dict(k1), dict(k2))
        for _ in range(2):
            kernels.make_kernel("ht_mixture", lam=0.5, k1=k1, k2=k2)
        assert (k1, k2) == before

    def test_parameter_boxes(self):
        with pytest.raises(ValidationError):
            kernels.make_kernel("bev_logistic", gamma=1.5)
        with pytest.raises(ValidationError):
            kernels.make_kernel("expar", phi=0.0)
        with pytest.raises(ValidationError):
            kernels.make_kernel("asymmetric_logistic", phi1=0.0, phi2=0.5, nu=0.3)
        with pytest.raises(ValidationError):
            kernels.ArchLaplaceKernel(-1.0, 0.5)
