import math

import mpmath
import numpy as np
import pytest

from extreme_chains import margins, norming, numerics
from extreme_chains.errors import RegimeError, ValidationError

from _oracles import (AlternatingGaussianScheme, ZerosFirst, arch_law_mp,
                      arch_law_ndtr_forms, ks_statistic, logistic_law_mp,
                      logistic_law_power_forms, update_limit_quotients)


class TestMakeNorming:

    def test_canonical_substitution(self):
        s = norming.make_norming("ht_canonical", alpha=0.5, beta=0.3)
        assert s.a(3, 1.0) == pytest.approx(0.125)
        assert s.b(3, 16.0) == pytest.approx(16.0 ** 0.3)

    def test_random_walk_case(self):
        s = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        for t in (1, 4, 9):
            assert s.a(t, 7.5) == 7.5
            assert s.b(t, 7.5) == 1.0

    def test_scale_only_case(self):
        s = norming.make_norming("ht_canonical", alpha=0.0, beta=0.4)
        assert s.scale_only
        assert s.a(2, 9.0) == 0.0
        assert s.b(3, 9.0) == pytest.approx(9.0 ** (0.4 ** 3))

    def test_density_decay_zeta(self):
        # zeta carries the drift bookkeeping: C(t,2) + t (c - gamma)
        s = norming.make_norming("density_decay", kappa=1.0, gamma=1.0, delta=0.0)
        assert s.c == 4.0
        assert s.zeta(1) == pytest.approx(s.c - s.gamma)
        assert s.zeta(2) == pytest.approx(1.0 + 2.0 * (s.c - s.gamma))

    def test_parameter_boxes(self):
        with pytest.raises(ValidationError):
            norming.make_norming("ht_canonical", alpha=0.0, beta=0.0)
        with pytest.raises(ValidationError):
            norming.make_norming("ht_canonical", alpha=1.1, beta=0.2)
        with pytest.raises(ValidationError):
            norming.make_norming("husler_reiss", gamma=-1.0)
        with pytest.raises(ValidationError):
            norming.make_norming("negative_ht", alpha_minus=0.5,
                                 alpha_plus=-0.5, beta=0.2)
        with pytest.raises(ValidationError):
            norming.make_norming("alternating_gaussian", rho=0.8)
        with pytest.raises(ValidationError, match=(
                r"^unknown norming scheme id 'mystery_scheme'; known: alternating_gaussian, "
                r"density_decay, ht_canonical, husler_reiss, negative_ht$")):
            norming.make_norming("mystery_scheme")

    def test_location_dominates_scale(self):
        # A2(a)/B2(a) witness: the normed value a_t(v) + b_t(v) x grows along
        # a threshold ladder and the location eventually dominates the scale.
        # The crossover threshold grows with t (already ~2e5 for the
        # canonical pair (0.64, 0.5) at t = 10, far beyond for the log-rate
        # schemes), so each scheme gets a ladder deep enough for t <= 10.
        cases = [
            (norming.make_norming("ht_canonical", alpha=1.0, beta=0.0),
             (1e8, 1e12), True),
            (norming.make_norming("ht_canonical", alpha=0.64, beta=0.5),
             (1e8, 1e12), True),
            (norming.make_norming("husler_reiss", gamma=1.0),
             (math.exp(100.0), math.exp(600.0)), False),
            (norming.make_norming("density_decay", kappa=1.0, gamma=1.0,
                                  delta=0.0),
             (math.exp(100.0), math.exp(400.0)), False),
        ]
        for s, (v_lo, v_hi), check_1000b in cases:
            for t in range(1, 11):
                for x in (-5.0, 0.0, 5.0):
                    lo = float(s.a(t, v_lo) + s.b(t, v_lo) * x)
                    hi = float(s.a(t, v_hi) + s.b(t, v_hi) * x)
                    assert hi > lo, (type(s).__name__, t, x)
                assert float(s.b(t, v_hi)) > 0.0
                if check_1000b:
                    assert float(s.a(t, v_hi)) > 1e3 * float(s.b(t, v_hi))
                else:
                    # log-rate schemes: the a/b ratio grows but reaches 1e3
                    # only beyond double range; witness the growth instead
                    r_lo = float(s.a(t, v_lo) / s.b(t, v_lo))
                    r_hi = float(s.a(t, v_hi) / s.b(t, v_hi))
                    assert r_hi > r_lo

    def test_scale_norming_grows(self):
        # B2(a) for the scale-only regime: b_t(v) -> infinity
        s = norming.make_norming("ht_canonical", alpha=0.0, beta=0.848)
        for t in range(1, 11):
            assert float(s.b(t, 1e12)) > float(s.b(t, 1e6)) > 1.0

    def test_alternating_sign(self):
        # C2(a): normed location alternates sign with t
        s = norming.make_norming("negative_ht", alpha_minus=-0.6,
                                 alpha_plus=-0.5, beta=0.3)
        for t in range(1, 9):
            val = float(s.a(t, 1e6))
            assert (val < 0.0) == (t % 2 == 1)


class TestUpdateFunctions:

    def test_random_walk(self):
        scheme = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        x = np.array([0.3, -2.0])
        np.testing.assert_allclose(scheme.psi_a(5, x), x)
        np.testing.assert_allclose(scheme.psi_b(5, x), 1.0)

    def test_scale_only_power(self):
        scheme = norming.make_norming("ht_canonical", alpha=0.0, beta=0.4)
        assert scheme.scale_only
        np.testing.assert_allclose(scheme.psi_b(3, np.array([2.0])), 2.0 ** 0.4)

    def test_scaled_autoregression(self):
        scheme = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        # producing step t uses alpha^{(t-1) beta}
        np.testing.assert_allclose(scheme.psi_a(2, np.array([1.0])), 0.64)
        np.testing.assert_allclose(scheme.psi_b(2, np.array([0.0])), 0.8)
        np.testing.assert_allclose(scheme.psi_b(3, np.array([0.0])), 0.64)

    def test_husler_reiss_is_random_walk(self):
        scheme = norming.make_norming("husler_reiss", gamma=0.7)
        x = np.array([1.5])
        np.testing.assert_allclose(scheme.psi_a(4, x), x)
        np.testing.assert_allclose(scheme.psi_b(4, x), 1.0)

    def test_density_decay_drift(self):
        s = norming.make_norming("density_decay", kappa=2.0, gamma=1.0, delta=0.0)
        # M_{t+1} = M_t - (t/gamma^2) log kappa + eps
        np.testing.assert_allclose(s.psi_a(4, np.array([0.0])),
                                   -3.0 * math.log(2.0))

    def test_alternating_gaussian(self):
        scheme = norming.make_norming("alternating_gaussian", rho=-0.8)
        np.testing.assert_allclose(scheme.psi_a(2, np.array([1.0])), -0.64)
        np.testing.assert_allclose(scheme.psi_b(2, np.array([0.0])), 0.8)
        np.testing.assert_allclose(scheme.psi_b(4, np.array([0.0])), 0.8 ** 3)

    def test_negative_ht_parity(self):
        s = norming.make_norming("negative_ht", alpha_minus=-0.6,
                                 alpha_plus=-0.5, beta=0.3)
        # producing an even step applies alpha_plus
        np.testing.assert_allclose(s.psi_a(2, np.array([1.0])), -0.5)
        np.testing.assert_allclose(s.psi_a(3, np.array([1.0])), -0.6)
        np.testing.assert_allclose(s.psi_b(2, np.array([0.0])),
                                   abs(s.coef(1)) ** 0.3)

    def test_b2c_condition(self):
        # sup{x : x^beta <= c} = c^{1/beta} -> 0 as c -> 0
        beta = 0.848
        for c in (1e-1, 1e-3, 1e-6):
            assert c ** (1.0 / beta) == pytest.approx(
                max(0.0, c ** (1.0 / beta)))
        assert 1e-12 ** (1.0 / beta) < 1e-9


class TestSemigroup:

    def test_canonical_exact(self):
        s = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        for t in (1, 2, 5):
            v = 37.0
            assert s.a(t + 1, v) == pytest.approx(float(s.a(1, s.a(t, v))), rel=1e-14)

    def test_scale_only_exact(self):
        s = norming.make_norming("ht_canonical", alpha=0.0, beta=0.848)
        for t in (1, 2, 5):
            v = 11.0
            assert s.b(t + 1, v) == pytest.approx(float(s.b(1, s.b(t, v))), rel=1e-14)

    @pytest.mark.parametrize("scheme", [
        norming.make_norming("husler_reiss", gamma=1.0),
        norming.make_norming("density_decay", kappa=1.0, gamma=1.0, delta=0.0),
    ])
    def test_asymptotic_composition(self, scheme):
        # a(a_t(v)) / a_{t+1}(v) -> 1 along a growing threshold ladder
        # (loglog-rate convergence: the ladder has to reach deep)
        devs = []
        for L in (20.0, 100.0, 400.0):
            v = math.exp(L)
            ratio = float(scheme.a(1, scheme.a(1, v)) / scheme.a(2, v))
            devs.append(abs(ratio - 1.0))
        assert devs[2] < devs[1] < devs[0]
        assert devs[-1] < 0.01


class TestUpdateConsistency:
    """A2(b): finite-threshold quotients approach the closed-form updates."""

    @pytest.mark.parametrize("scheme,v", [
        (norming.make_norming("ht_canonical", alpha=1.0, beta=0.0), 1e6),
        (norming.make_norming("ht_canonical", alpha=0.64, beta=0.5), 1e6),
        (norming.make_norming("ht_canonical", alpha=0.3, beta=0.0), 1e6),
        (norming.make_norming("ht_canonical", alpha=0.0, beta=0.848), 1e6),
        (norming.make_norming("negative_ht", alpha_minus=-0.6, alpha_plus=-0.5,
                              beta=0.3), 1e6),
        (norming.make_norming("alternating_gaussian", rho=-0.8), 1e6),
    ])
    def test_polynomial_rate_schemes_within_2pct(self, scheme, v):
        for t in (1, 2, 3):
            for x in (-2.0, 0.5, 3.0):
                if scheme.scale_only and x <= 0.0:
                    continue
                pa_hat, pb_hat = update_limit_quotients(scheme, t, v, x)
                pa = scheme.psi_a(t + 1, x)
                pb = scheme.psi_b(t + 1, x)
                assert abs(float(pa_hat) - float(pa)) <= 0.02 * max(1.0, abs(float(pa)))
                assert abs(float(pb_hat) / float(pb) - 1.0) <= 0.02

    @pytest.mark.parametrize("scheme", [
        norming.make_norming("husler_reiss", gamma=1.0),
        norming.make_norming("density_decay", kappa=1.0, gamma=1.0, delta=0.0),
    ])
    def test_log_rate_schemes_converge(self, scheme):
        # these schemes converge at (log v)^{-1/2} / loglog v / log v rates,
        # far slower than polynomial; witness decreasing deviation instead
        devs = []
        for L in (10.0, 30.0, 90.0):
            v = math.exp(L)
            pa_hat, pb_hat = update_limit_quotients(scheme, 1, v, 1.0)
            pa = float(scheme.psi_a(2, 1.0))
            devs.append(abs(float(pa_hat) - pa) + abs(float(pb_hat) - 1.0))
        assert devs[2] < devs[1] < devs[0]


class TestRemainders:

    def test_exact_norming_zero_remainder(self):
        s = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        for v in (10.0, 1e5):
            ra, rb = norming.remainder_terms(s, 3, v, 2.5)
            assert float(ra) == 0.0
            assert float(rb) == 0.0

    def test_scaled_autoregression_rate(self):
        # r_b(v, x) = O(v^{beta-1}): doubling v scales it by 2^{beta-1}
        s = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        v = np.geomspace(1e4, 1e7, 7)
        rb = np.array([float(norming.remainder_terms(s, 1, vv, 1.0)[1]) for vv in v])
        ratios = rb[1:] / rb[:-1]
        step = (v[1] / v[0]) ** (0.5 - 1.0)
        np.testing.assert_allclose(ratios, step, rtol=0.02)

    def test_husler_reiss_boundedness(self):
        s = norming.make_norming("husler_reiss", gamma=1.0)
        vals = []
        for L in (10.0, 20.0, 30.0):
            ra, _ = norming.remainder_terms(s, 1, math.exp(L), 0.0)
            vals.append(float(ra) * math.sqrt(L))
        vals = np.array(vals)
        assert vals.max() - vals.min() < 0.5 * np.abs(vals).max()

    @pytest.mark.parametrize("beta", [0.1, 0.5, 0.848])
    def test_scale_only_remainders(self, beta):
        # Theorem-2 regime: no location term, r_b = 1 - b_{t+1}(v) x^beta / (b_t(v) x)^beta
        s = norming.make_norming("ht_canonical", alpha=0.0, beta=beta)
        for t in (1, 2, 3):
            for v in (6.0, 12.0, 24.0, 1e3, 1e6):
                bt, bt1 = float(s.b(t, v)), float(s.b(t + 1, v))
                for x in (0.5, 1.0, 2.5, 5.0):
                    ra, rb = norming.remainder_terms(s, t, v, x)
                    assert float(ra) == 0.0
                    assert float(rb) == 1.0 - bt1 * np.power(x, beta) \
                        / np.power(bt * x, beta)
        rows = norming.remainder_table(s, [1, 2, 3], [6.0, 12.0, 24.0],
                                       x_values=(-5.0, -0.5, 0.0, 0.5, 5.0))
        assert rows and all(x > 0.0 and ra == 0.0 for _, _, x, ra, _ in rows)
        assert len(rows) == 3 * 3 * 2

    def test_negative_ht_exact_location(self):
        s = norming.make_norming("negative_ht", alpha_minus=-0.6,
                                 alpha_plus=-0.5, beta=0.3)
        for t in (1, 2, 3):
            ra, rb = norming.remainder_terms(s, t, 1e5, 1.5)
            assert abs(float(ra)) < 1e-10
            assert abs(float(rb)) < 1e-2


class TestLimitLaws:

    def test_gaussian_exponential_values(self):
        law = norming.limit_law("gaussian_exponential", rho=0.8)
        assert float(law.cdf(0.0)) == 0.5
        assert law.var == pytest.approx(0.4608)

    def test_g1_symmetric_point(self):
        law = norming.limit_law("asym_logistic_g1", phi1=0.5, phi2=0.5, nu=0.152)
        assert float(law.cdf(0.0)) == pytest.approx(2.0 ** (0.152 - 1.0), rel=1e-12)

    def test_husler_reiss_at_zero(self):
        # high-precision evaluation of 1 - exp(-(8 pi)^{-1/2})
        law = norming.limit_law("husler_reiss", gamma=1.0)
        assert float(law.cdf(0.0)) == pytest.approx(0.18083613862358883, abs=1e-14)

    def test_arch_g_identity(self):
        gp = norming.limit_law("arch_g_plus", theta1=0.7, kappa=3.172)
        gm = norming.limit_law("arch_g_minus", theta1=0.7, kappa=3.172)
        xs = np.linspace(-8.0, 8.0, 65)
        assert np.max(np.abs(gm.cdf(xs) - (1.0 - gp.cdf(-xs)))) < 1e-12

    def test_atom_bookkeeping(self):
        k1 = norming.limit_law("asym_logistic_k1", phi1=0.5, phi2=0.5, nu=0.152)
        assert k1.neg_mass == 0.5 and k1.has_atoms
        k2 = norming.limit_law("asym_logistic_k2", phi1=0.5)
        assert k2.pos_mass == 0.5
        rng = np.random.default_rng(0)
        with pytest.raises(RegimeError):
            k1.sample(10, rng)

    @pytest.mark.parametrize("params", [{"gamma": 1.0}, {"c": 4.0},
                                        {"delta": 0.0}, {"c": -1.0, "gamma": 1.0}])
    def test_density_decay_law_needs_gamma_and_c(self, params):
        # c is given or derived from delta; either missing is a config error
        with pytest.raises(ValidationError):
            norming.limit_law("density_decay", **params)

    @pytest.mark.parametrize("law_id,params", [
        ("density_decay", {"c": 4.0, "gamma": 1.0}), ("husler_reiss", {"gamma": 1.0})])
    def test_exp_exponential_quantile_is_finite_at_subnormal_p(self, law_id, params):
        # -log1p(-p) / c underflowed to 0 at p = 5e-324 with c > 1, giving -inf
        q = float(norming.limit_law(law_id, **params).ppf(5e-324))
        assert math.isfinite(q), q

    def test_density_decay_law_derives_c_from_delta(self):
        law = norming.limit_law("density_decay", gamma=1.0, delta=0.0)
        assert law.name == "density_decay(c=4.0, gamma=1.0)"

    def test_expar_limit_unknown(self):
        with pytest.raises(ValidationError, match=(
                r"^no limiting kernel is available for the exponential autoregressive "
                r"chain; simulate the actual chain instead$")):
            norming.limit_law("expar")
        with pytest.raises(ValidationError,
                           match=r"^unknown limit law id 'made_up_law'; known: arch_g_minus, "):
            norming.limit_law("made_up_law")

    @pytest.mark.parametrize("law_id,params", [
        ("gaussian_exponential", {"rho": 0.8}),
        ("bev_logistic", {"gamma": 0.152}),
        ("inverted_bev_logistic", {"gamma": 0.152}),
        ("husler_reiss", {"gamma": 1.0}),
        ("density_decay", {"c": 4.0, "gamma": 1.0}),
        ("asym_logistic_g1", {"phi1": 0.3, "phi2": 0.6, "nu": 0.4}),
        ("exponential", {}),
        ("arch_g_plus", {"theta1": 0.7, "kappa": 3.172}),
        ("arch_g_minus", {"theta1": 0.7, "kappa": 3.172}),
    ])
    def test_sampler_matches_cdf(self, law_id, params):
        law = norming.limit_law(law_id, **params)
        rng = np.random.default_rng(17)
        sample = law.sample(100_000, rng)
        assert ks_statistic(sample, law.cdf) < 0.006

    @pytest.mark.parametrize("law_id,params", [
        ("gaussian_exponential", {"rho": 0.8}),
        ("bev_logistic", {"gamma": 0.5}),
        ("density_decay", {"c": 4.0, "gamma": 1.0}),
        ("arch_g_plus", {"theta1": 0.7, "kappa": 3.17}),
        ("arch_g_minus", {"theta1": 0.7, "kappa": 3.17}),
    ])
    def test_sample_redraws_a_zero_uniform(self, law_id, params):
        # ppf(0.0) is -inf for every continuous law; a uniform that falls on
        # exactly 0.0 is drawn again
        law = norming.limit_law(law_id, **params)
        assert np.all(np.isfinite(law.sample(5, ZerosFirst("uniform"))))


# ---------------------------------------------------------------------------
# one implementation per scheme and law
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [-0.95, -0.8, -0.3, -0.123])
def test_alternating_gaussian_is_negative_ht(rho):
    # the alternating Gaussian norming is negative_ht at (-rho^2, -rho^2, 1/2);
    # it matches the scheme it replaced, whose a_t uses rho^(2t) where the
    # negative-HT scheme raises the rounded -rho^2 to the power t, so a_t may
    # differ by t times the rounding of rho^2 plus three product roundings
    s = norming.make_norming("alternating_gaussian", rho=rho)
    assert isinstance(s, norming.NegativeHtScheme) and s.scale is margins.LAPLACE
    assert (s.alpha_minus, s.alpha_plus, s.beta) == (-rho * rho, -rho * rho, 0.5)
    old = AlternatingGaussianScheme(rho)
    v = np.array([-1e6, -3.5, -1e-3, 0.7, 2.0, 1e5])
    for t in range(1, 13):
        for f in ("a", "b", "psi_a", "psi_b", "one_step_a"):
            want = getattr(old, f)(t, v)
            rel = np.max(np.abs(getattr(s, f)(t, v) - want) / np.abs(want))
            assert rel <= (1e-15 if f != "a" else (t + 3) * 2.0 ** -53), (f, t, rel)


LOGISTIC_LAWS = [
    ("bev_logistic", {"gamma": 0.152}, ((1.0, 1.0), 0.152)),
    ("bev_logistic", {"gamma": 0.5}, ((1.0, 1.0), 0.5)),
    ("bev_logistic", {"gamma": 0.9}, ((1.0, 1.0), 0.9)),
    ("asym_logistic_g1", {"phi1": 0.5, "phi2": 0.5, "nu": 0.152}, ((0.5, 0.5), 0.152)),
    ("asym_logistic_g1", {"phi1": 0.5, "phi2": 0.4, "nu": 0.3}, ((0.4, 0.5), 0.3)),
    ("asym_logistic_g1", {"phi1": 0.3, "phi2": 0.6, "nu": 0.4}, ((0.6, 0.3), 0.4)),
]
ARCH_LAWS = [(law_id, theta1) for law_id in ("arch_g_plus", "arch_g_minus")
             for theta1 in (0.3, 0.7, 1.0)]


def _case_id(case):
    if isinstance(case[1], dict):
        return "-".join([case[0]] + [f"{k}={v}" for k, v in case[1].items()])
    return f"{case[0]}-theta1={case[1]}"


def _law_and_reference(case):
    """The law, its mpmath (cdf, ppf) and its scale: nu for a logistic law,
    whose quantile is log r - nu log(e^a - 1), kappa for an ARCH law."""
    if case[0] in ("arch_g_plus", "arch_g_minus"):
        law_id, theta1 = case
        kappa = numerics.arch_tail_index(theta1)
        sign = 1.0 if law_id == "arch_g_plus" else -1.0
        return (norming.limit_law(law_id, theta1=theta1, kappa=kappa),
                arch_law_mp(theta1, kappa, sign), kappa)
    law_id, params, (r, nu) = case
    return norming.limit_law(law_id, **params), logistic_law_mp(r, nu), nu


# p from 1e-250 to 1 - 2^-53, the largest double rng.uniform returns
TAIL_P = np.unique(np.concatenate([
    [1e-250, 2.0 ** -53, 0.5, 1.0 - 2.0 ** -53], np.geomspace(1e-250, 0.5, 60),
    1.0 - np.geomspace(2.0 ** -53, 0.5, 30), np.linspace(0.02, 0.98, 25)]))


@pytest.mark.parametrize("case", LOGISTIC_LAWS + ARCH_LAWS, ids=_case_id)
def test_limit_law_quantile_matches_mpmath(case):
    # every quantile is finite, and within 1e-15 of max(|x|, 1, the law's
    # scale) of mpmath over p in [1e-250, 1 - 2^-53]; the forms these
    # replaced were off by 1.4e-2 (BEV) or infinite (G1, G+) at 1 - 2^-53
    law, (_, ppf_mp), scale = _law_and_reference(case)
    x = law.ppf(TAIL_P)
    assert np.all(np.isfinite(x))
    ref = np.array([float(ppf_mp(p)) for p in TAIL_P])
    err = np.abs(x - ref) / np.maximum(np.abs(ref), max(1.0, scale))
    assert err.max() <= 1e-15, (TAIL_P[err.argmax()], err.max())


@pytest.mark.parametrize("case", LOGISTIC_LAWS + ARCH_LAWS, ids=_case_id)
def test_limit_law_cdf_matches_mpmath(case):
    # relative error within 1e-14 plus 2^-50 |log K|: an exp of a rounded
    # argument of size |log K| carries that much, up to 5.2e-13 at K = 1e-250
    # (G-'s erfc(z) also carries 2 z^2 times the rounding of z); the normal
    # form of G+ lost everything in its lower tail
    law, (cdf_mp, _), _ = _law_and_reference(case)
    xs = np.concatenate([law.ppf(TAIL_P), np.linspace(-40.0, 40.0, 81)])
    ref = [cdf_mp(x) for x in xs]
    keep = np.array([r > mpmath.mpf("1e-250") for r in ref])
    ref_f = np.array([float(r) for r in ref])[keep]
    err = np.abs(law.cdf(xs[keep]) - ref_f) / ref_f
    assert np.all(err <= 1e-14 + 2.0 ** -50 * np.abs(np.log(ref_f))), \
        (xs[keep][err.argmax()], err.max())


@pytest.mark.parametrize("case", LOGISTIC_LAWS + ARCH_LAWS, ids=_case_id)
def test_limit_law_keeps_the_replaced_forms_in_the_body(case):
    # the same law as the forms it replaced wherever those are well conditioned
    law, _, _ = _law_and_reference(case)
    if case[0] in ("arch_g_plus", "arch_g_minus"):
        law_id, theta1 = case
        cdf, ppf = arch_law_ndtr_forms(theta1, numerics.arch_tail_index(theta1),
                                       1.0 if law_id == "arch_g_plus" else -1.0)
    else:
        cdf, ppf = logistic_law_power_forms(**case[1])
    p, x = np.linspace(0.01, 0.99, 99), np.linspace(-5.0, 5.0, 101)
    np.testing.assert_allclose(law.ppf(p), ppf(p), rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(law.cdf(x), cdf(x), rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("law_id,params", [
    ("bev_logistic", {"gamma": 1e-310}),
    ("asym_logistic_g1", {"phi1": 1e-310, "phi2": 0.5, "nu": 0.3}),
    ("asym_logistic_k1", {"phi1": 0.5, "phi2": 0.5, "nu": 5e-324}),
])
def test_logistic_law_refuses_overflowing_constants(law_id, params):
    with pytest.raises(ValidationError, match="overflows doubles"):
        norming.limit_law(law_id, **params)
