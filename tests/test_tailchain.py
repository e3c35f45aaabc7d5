import math

import numpy as np
import pytest

from extreme_chains import margins, norming, tailchain
from extreme_chains.errors import RegimeError, ValidationError

from _oracles import EULER_GAMMA, dkw_bound, ks_statistic

np.seterr(all="ignore")


def two_sample_ks(a, b):
    b = np.sort(b)
    return ks_statistic(a, lambda s: np.searchsorted(b, s, side="right") / b.size)


class TestTheoremOne:

    def test_random_walk_variance(self, rng):
        K = norming.limit_law("bev_logistic", gamma=0.152)
        scheme = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        paths = tailchain.simulate_tail_chain(scheme, K, 5, 100_000, rng)
        var_k = float(np.var(K.ppf(rng.uniform(size=400_000))))
        for t in (1, 2, 3, 4, 5):
            ratio = float(np.var(paths.M[:, t - 1])) / (t * var_k)
            assert abs(ratio - 1.0) < 0.05, t

    def test_marginal_of_first_step(self, rng):
        K = norming.limit_law("gaussian_exponential", rho=0.8)
        scheme = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        paths = tailchain.simulate_tail_chain(scheme, K, 1, 100_000, rng)
        assert ks_statistic(paths.M[:, 0], K.cdf) < 0.006

    def test_scaled_ar_mean_recursion(self, rng):
        # E[M_{t+1}] = alpha E[M_t] + alpha^{t beta} E[eps]
        K = norming.limit_law("bev_logistic", gamma=0.3)
        al, be = 0.64, 0.5
        scheme = norming.make_norming("ht_canonical", alpha=al, beta=be)
        n = 200_000
        paths = tailchain.simulate_tail_chain(scheme, K, 4, n, rng)
        mu_eps = float(np.mean(K.ppf(rng.uniform(size=400_000))))
        for t in (1, 2, 3):
            lhs = paths.M[:, t].mean()
            rhs = al * paths.M[:, t - 1].mean() + al ** (t * be) * mu_eps
            se = paths.M[:, t].std() / math.sqrt(n)
            assert abs(lhs - rhs) < 3.0 * se + 3.0 * abs(mu_eps) / math.sqrt(n)

    def test_e0_independent_of_chain(self, rng):
        K = norming.limit_law("gaussian_exponential", rho=0.8)
        scheme = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        paths = tailchain.simulate_tail_chain(scheme, K, 3, 100_000, rng)
        assert ks_statistic(paths.E0, margins.EXPONENTIAL.cdf) < 0.006
        for t in range(3):
            assert abs(np.corrcoef(paths.E0, paths.M[:, t])[0, 1]) < 0.02

    def test_atom_law_rejected(self, rng):
        K1 = norming.limit_law("asym_logistic_k1", phi1=0.5, phi2=0.5, nu=0.152)
        scheme = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        with pytest.raises(RegimeError):
            tailchain.simulate_tail_chain(scheme, K1, 3, 100, rng)


class TestTheoremTwo:

    def test_log_autoregression(self, rng):
        gamma = 0.152
        beta = 1.0 - gamma
        K = norming.limit_law("inverted_bev_logistic", gamma=gamma)
        scheme = norming.make_norming("ht_canonical", alpha=0.0, beta=beta)
        paths = tailchain.simulate_tail_chain(scheme, K, 10, 50_000, rng)
        assert np.all(paths.M > 0.0)
        logm = np.log(paths.M)
        x = logm[:, :-1].ravel()
        y = logm[:, 1:].ravel()
        slope = float(np.cov(x, y)[0, 1] / np.var(x))
        assert abs(slope - beta) < 0.05

    def test_log_mean_recursion(self, rng):
        # closed-form oracle: E[log eps] = gamma (-EulerGamma - log gamma) and
        # E[log M_t] = (beta^{t-1} + (1 - beta^{t-1})/(1 - beta) (1 - 1) ...)
        # reduces to mu (beta^{t-1} + sum_{j<t-1} beta^j) with mu = E[log eps]
        gamma = 0.152
        beta = 1.0 - gamma
        mu = gamma * (-EULER_GAMMA - math.log(gamma))
        K = norming.limit_law("inverted_bev_logistic", gamma=gamma)
        scheme = norming.make_norming("ht_canonical", alpha=0.0, beta=beta)
        n = 200_000
        paths = tailchain.simulate_tail_chain(scheme, K, 6, n, rng)
        logm = np.log(paths.M)
        for t in (1, 3, 6):
            expect = mu * (beta ** (t - 1) + sum(beta ** j for j in range(t - 1)))
            se = logm[:, t - 1].std() / math.sqrt(n)
            assert abs(logm[:, t - 1].mean() - expect) < 3.0 * se

    def test_mass_at_zero_rejected(self, rng):
        K = norming.limit_law("gaussian_exponential", rho=0.8)   # mass below 0
        scheme = norming.make_norming("ht_canonical", alpha=0.0, beta=0.5)
        with pytest.raises(RegimeError):
            tailchain.simulate_tail_chain(scheme, K, 3, 100, rng)


class TestTheoremThree:

    def test_example_ten_recursion(self, rng):
        # M_{t+1} = -rho^2 M_t + |rho|^t eps with a single limit law
        rho = -0.8
        K = norming.limit_law("gaussian_exponential", rho=rho)
        scheme = norming.make_norming("alternating_gaussian", rho=rho)
        n = 200_000
        paths = tailchain.simulate_tail_chain(scheme, K, 4, n, rng)
        v = K.var
        var2 = rho ** 4 * v + abs(rho) ** 2 * v
        assert np.var(paths.M[:, 1]) == pytest.approx(var2, rel=0.02)
        var3 = rho ** 4 * var2 + abs(rho) ** 4 * v
        assert np.var(paths.M[:, 2]) == pytest.approx(var3, rel=0.02)

    def test_innovation_parity(self, rng):
        # step 2 must draw from K_plus: make the two laws distinguishable
        K_minus = norming.limit_law("gaussian_exponential", rho=-0.8)
        K_plus = norming.limit_law("density_decay", c=4.0, gamma=1.0)
        s = norming.make_norming("negative_ht", alpha_minus=-0.5,
                                 alpha_plus=-0.5, beta=0.0)
        n = 100_000
        paths = tailchain.simulate_tail_chain(s, K_minus, 2, n, rng, K_plus=K_plus)
        # M_2 = -0.5 M_1 + eps_2: recover eps_2 and test against K_plus
        eps2 = paths.M[:, 1] + 0.5 * paths.M[:, 0]
        assert ks_statistic(eps2, K_plus.cdf) < 0.006

    def test_reduces_to_theorem_one(self, rng):
        # equal laws and symmetric coefficients reproduce the plain recursion
        rho = -0.8
        K = norming.limit_law("gaussian_exponential", rho=rho)
        scheme_alt = norming.make_norming("alternating_gaussian", rho=rho)
        p_alt = tailchain.simulate_tail_chain(scheme_alt, K, 3, 100_000, rng)

        # mirror chain: M'_{t+1} = rho^2 M'_t + |rho|^t eps has |M| equal in law
        scheme_pos = norming.make_norming("ht_canonical", alpha=rho * rho, beta=0.5)
        p_pos = tailchain.simulate_tail_chain(scheme_pos, K, 3, 100_000, rng)
        d = two_sample_ks(np.abs(p_alt.M[:, 2]), np.abs(p_pos.M[:, 2]))
        assert d < 0.01


def stacked_tail_chain(scheme, K, T, n, rng, K_plus=None):
    # reference: the (n, T) recursion on column views, E0 drawn first
    K_plus = K if K_plus is None else K_plus
    E0 = rng.exponential(size=n)
    M = np.empty((n, T))
    M[:, 0] = K.sample(n, rng)
    for t in range(2, T + 1):
        eps = (K_plus if t % 2 == 0 else K).sample(n, rng)
        prev = M[:, t - 2]
        M[:, t - 1] = scheme.psi_a(t, prev) + scheme.psi_b(t, prev) * eps
    return E0, M


class TestTailChainSteps:

    CASES = [
        (("ht_canonical", {"alpha": 1.0, "beta": 0.0}),
         ("bev_logistic", {"gamma": 0.152}), None),
        (("ht_canonical", {"alpha": 0.64, "beta": 0.5}),
         ("gaussian_exponential", {"rho": 0.8}), None),
        (("negative_ht", {"alpha_minus": -0.5, "alpha_plus": -0.5, "beta": 0.0}),
         ("gaussian_exponential", {"rho": -0.8}),
         ("density_decay", {"c": 4.0, "gamma": 1.0})),
    ]

    @pytest.mark.parametrize("sspec,kspec,kplus", CASES)
    def test_steps_equal_the_stacked_paths(self, sspec, kspec, kplus):
        scheme = norming.make_norming(sspec[0], **sspec[1])
        K = norming.limit_law(kspec[0], **kspec[1])
        K_plus = None if kplus is None else norming.limit_law(kplus[0], **kplus[1])
        T, n = 5, 3_000
        steps = list(tailchain.tail_chain_steps(
            scheme, K, T, n, np.random.default_rng(4), K_plus=K_plus))
        assert len(steps) == T and all(m.shape == (n,) for m in steps)
        paths = tailchain.simulate_tail_chain(
            scheme, K, T, n, np.random.default_rng(4), K_plus=K_plus)
        assert np.array_equal(np.column_stack(steps), paths.M)
        E0, M = stacked_tail_chain(scheme, K, T, n, np.random.default_rng(4),
                                   K_plus=K_plus)
        assert np.array_equal(paths.M, M)
        assert np.array_equal(paths.E0, E0)

    def test_checks_before_the_first_step(self, rng):
        K1 = norming.limit_law("asym_logistic_k1", phi1=0.5, phi2=0.5, nu=0.152)
        scheme = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        with pytest.raises(RegimeError):
            next(tailchain.tail_chain_steps(scheme, K1, 3, 100, rng))
        with pytest.raises(ValidationError):
            next(tailchain.tail_chain_steps(scheme, K1, 0, 100, rng))


@pytest.fixture(scope="module")
def asym_paths():
    rng = np.random.default_rng(77)
    return tailchain.hidden_asym_logistic(0.5, 0.5, 0.152, 12, 50_000, rng)


class TestHiddenAsymLogistic:

    def test_changepoint_geometric(self, asym_paths):
        tb = tailchain.first_times(asym_paths.is_changepoint)
        assert abs(np.mean(tb == 1) - 0.5) < 0.01
        assert abs(np.mean(tb == 2) - 0.25) < 0.01
        assert abs(np.mean(tb == 3) - 0.125) < 0.005

    def test_prechange_increments_follow_g1(self, asym_paths):
        g1 = norming.limit_law("asym_logistic_g1", phi1=0.5, phi2=0.5, nu=0.152)
        late = tailchain.first_times(asym_paths.is_changepoint) > 2
        inc = asym_paths.M[late, 1] - asym_paths.M[late, 0]
        assert ks_statistic(inc, g1.cdf) < dkw_bound(inc.size)

    def test_restart_is_unit_exponential(self, asym_paths):
        tb = tailchain.first_times(asym_paths.is_changepoint)
        has = tb <= asym_paths.horizon
        vals = asym_paths.M[has, tb[has] - 1]
        assert vals.size > 10_000
        assert ks_statistic(vals, margins.EXPONENTIAL.cdf) < 0.02

    def test_postchange_marginal_stationary(self, asym_paths):
        # two steps after the restart the state follows the chain's
        # stationary exponential law
        tb = tailchain.first_times(asym_paths.is_changepoint)
        has = tb + 2 <= asym_paths.horizon
        vals = asym_paths.M[has, tb[has] + 1][:10_000]
        assert ks_statistic(vals, margins.EXPONENTIAL.cdf) < 0.02

    def test_regime_annotation(self, asym_paths):
        i = np.flatnonzero(tailchain.first_times(asym_paths.is_changepoint) == 4)[0]
        assert list(asym_paths.regime[i, :3]) == [tailchain.REGIME_EXTREME] * 3
        assert asym_paths.regime[i, 3] == tailchain.REGIME_BODY


class TestHiddenMixture:

    G1 = norming.limit_law("gaussian_exponential", rho=0.95)
    G2 = norming.limit_law("inverted_bev_logistic", gamma=0.9)
    A1, A2 = 0.9025, 0.3

    def run(self, b1, b2, latent, rng=None):
        rng = rng or np.random.default_rng(5)
        lat = np.asarray(latent, dtype=bool)[None, :]
        return tailchain.hidden_ht_mixture(
            0.5, (self.A1, b1, self.G1), (self.A2, b2, self.G2),
            lat.shape[1], 1, rng, latent=lat)

    def test_no_changepoint_is_pure_alpha1(self):
        h = self.run(0.5, 0.1, [1, 1, 1, 1, 1])
        assert list(h.case[0]) == [0] + [tailchain.MIX_CASE_A1_INNOV] * 4
        assert not h.is_changepoint[0].any()

    def test_equal_betas_use_active_mode(self):
        h = self.run(0.5, 0.5, [1, 0, 0, 1, 1])
        assert list(h.case[0]) == [0, tailchain.MIX_CASE_A2_INNOV,
                                   tailchain.MIX_CASE_A2_INNOV,
                                   tailchain.MIX_CASE_A1_INNOV,
                                   tailchain.MIX_CASE_A1_INNOV]

    def test_beta1_greater_degenerate_scaling(self):
        # mode-2 intervals contract deterministically by alpha2
        h = self.run(0.5, 0.1, [1, 0, 0, 1, 1])
        assert list(h.case[0]) == [0, tailchain.MIX_CASE_A2_SCALE,
                                   tailchain.MIX_CASE_A2_SCALE,
                                   tailchain.MIX_CASE_A1_INNOV,
                                   tailchain.MIX_CASE_A1_INNOV]
        assert h.M[0, 1] == pytest.approx(self.A2 * h.M[0, 0], rel=1e-12)
        assert h.M[0, 2] == pytest.approx(self.A2 * h.M[0, 1], rel=1e-12)

    def test_beta1_greater_started_low_keeps_innovations(self):
        # T^B_1 = 1: the alpha2 stretch keeps its innovations, and re-entry
        # into mode 1 at T^B_2 forgets the past entirely
        h = self.run(0.5, 0.1, [0, 0, 1, 1, 1])
        assert list(h.case[0]) == [0, tailchain.MIX_CASE_A2_INNOV,
                                   tailchain.MIX_CASE_INNOV1_ONLY,
                                   tailchain.MIX_CASE_A1_INNOV,
                                   tailchain.MIX_CASE_A1_INNOV]

    def test_beta2_greater_rows(self):
        # entering mode 2 forgets the past; mode-1 re-entry scales by alpha1
        h = self.run(0.1, 0.5, [1, 0, 1, 1, 0])
        assert list(h.case[0]) == [0, tailchain.MIX_CASE_INNOV2_ONLY,
                                   tailchain.MIX_CASE_A1_SCALE,
                                   tailchain.MIX_CASE_A1_SCALE,
                                   tailchain.MIX_CASE_A2_INNOV]
        assert h.M[0, 2] == pytest.approx(self.A1 * h.M[0, 1], rel=1e-12)
        assert h.M[0, 3] == pytest.approx(self.A1 * h.M[0, 2], rel=1e-12)

    def test_n_alpha_bookkeeping_matches_changepoint_sums(self):
        # product bookkeeping equals the closed change-point-sum form
        rng = np.random.default_rng(123)
        T = 12
        h = tailchain.hidden_ht_mixture(
            0.5, (self.A1, 0.5, self.G1), (self.A2, 0.1, self.G2), T, 200, rng)
        for i in range(200):
            B = h.B[i]
            cps = np.flatnonzero(h.is_changepoint[i]) + 1
            for t in range(1, T + 1):
                k = int(np.sum(cps <= t))
                n1 = int(np.sum(B[:t]))
                direct = self.A1 ** n1 * self.A2 ** (t - n1)
                if k == 0:
                    closed = self.A1 ** t
                else:
                    s_odd = int(cps[0::2][cps[0::2] <= t].sum())
                    s_even = int(cps[1::2][cps[1::2] <= t].sum())
                    if k % 2 == 1:
                        closed = self.A1 ** (s_odd - 1 - s_even) * \
                            self.A2 ** (t + s_even - s_odd + 1)
                    else:
                        closed = self.A1 ** (t + s_odd - s_even) * \
                            self.A2 ** (s_even - s_odd)
                assert math.isclose(direct, closed, rel_tol=1e-9), (i, t)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValidationError):
            tailchain.hidden_ht_mixture(0.5, (0.3, 0.5, self.G1),
                                        (0.9, 0.5, self.G2), 5, 10, rng)


@pytest.fixture(scope="module")
def rs_paths():
    rng = np.random.default_rng(3)
    return tailchain.hidden_rootzen_smith(10, 100_000, rng)


class TestHiddenRootzenSmith:

    def test_half_mass_frozen_at_step_one(self, rs_paths):
        assert abs(np.mean(rs_paths.M[:, 0] == 0.0) - 0.5) < 0.005

    def test_restart_is_laplace(self, rs_paths):
        term = tailchain.first_times(rs_paths.is_changepoint)
        has = term <= rs_paths.horizon
        vals = rs_paths.M[has, term[has] - 1]
        assert ks_statistic(vals, margins.LAPLACE.cdf) < 0.02

    def test_frozen_before_termination(self, rs_paths):
        term = tailchain.first_times(rs_paths.is_changepoint)
        late = (term >= 3) & (term <= rs_paths.horizon)
        before = np.arange(rs_paths.horizon) < term[:, None] - 1
        assert np.all(rs_paths.M[late][before[late]] == 0.0)
        assert late.any()

    def test_termination_geometric(self, rs_paths):
        term = tailchain.first_times(rs_paths.is_changepoint)
        for t in (1, 2, 3, 4):
            assert abs(np.mean(term == t) - 0.5 ** t) < 0.01


@pytest.fixture(scope="module")
def arch_paths():
    rng = np.random.default_rng(9)
    return tailchain.hidden_arch(1.0, 0.7, 10, 50_000, rng)


class TestHiddenArch:

    def test_sign_regime_flips_exactly_at_changepoints(self, arch_paths):
        reg = arch_paths.regime
        np.testing.assert_array_equal(reg[:, 1:] != reg[:, :-1],
                                      arch_paths.is_changepoint[:, 1:])

    def test_no_changepoint_is_gplus_walk(self):
        # forced latent path: no flips keep every innovation in the upper law
        from extreme_chains import numerics
        rng = np.random.default_rng(4)
        kappa = numerics.arch_tail_index(0.7)
        gp = norming.limit_law("arch_g_plus", theta1=0.7, kappa=kappa)
        h = tailchain.hidden_arch(1.0, 0.7, 6, 200_000, rng)
        clean = ~h.is_changepoint.any(axis=1)
        inc = h.M[clean, 3] - h.M[clean, 2]
        assert inc.size > 2000
        assert ks_statistic(inc, gp.cdf) < dkw_bound(inc.size)

    def test_first_step_laws(self, arch_paths):
        from extreme_chains import numerics
        kappa = numerics.arch_tail_index(0.7)
        gp = norming.limit_law("arch_g_plus", theta1=0.7, kappa=kappa)
        gm = norming.limit_law("arch_g_minus", theta1=0.7, kappa=kappa)
        first_cp = arch_paths.is_changepoint[:, 0]
        assert ks_statistic(arch_paths.M[first_cp, 0], gm.cdf) < 0.01
        assert ks_statistic(arch_paths.M[~first_cp, 0], gp.cdf) < 0.01

    def test_unit_theta_gplus_form(self):
        from scipy.stats import norm as _norm
        gp = norming.limit_law("arch_g_plus", theta1=1.0, kappa=2.0)
        xs = np.linspace(-4.0, 6.0, 41)
        np.testing.assert_allclose(gp.cdf(xs), 2.0 * _norm.cdf(np.exp(xs / 2.0)) - 1.0,
                                   atol=1e-14)


class TestReconstruction:

    def test_identity_norming(self):
        s = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        M = np.array([[0.5, -1.0, 2.0]])
        out = tailchain.reconstruct_paths(10.0, s, M)
        np.testing.assert_allclose(out, 10.0 + M)

    def test_gaussian_copula_norming(self):
        s = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        M = np.array([[1.0, 0.0]])
        out = tailchain.reconstruct_paths(10.0, s, M)
        np.testing.assert_allclose(out[0, 0], 6.4 + math.sqrt(10.0))
        np.testing.assert_allclose(out[0, 1], 0.64 ** 2 * 10.0)

    def test_zero_chain_reproduces_location(self):
        s = norming.make_norming("husler_reiss", gamma=1.0)
        M = np.zeros((1, 4))
        out = tailchain.reconstruct_paths(math.exp(10.0), s, M)
        expect = [float(s.a(t, math.exp(10.0))) for t in range(1, 5)]
        np.testing.assert_allclose(out[0], expect)


def detected_times(rule, path):
    """The 1-based detection times of one path, read from its mask row."""
    mask = rule.detect(path)
    assert mask.shape == (1, len(path) - 1)
    return np.flatnonzero(mask[0]) + 1


class TestDetectChangepoints:

    def test_ratio_threshold_example(self):
        times = detected_times(tailchain.RatioThreshold(0.5), [10.0, 9.0, 4.0, 5.0])
        assert times[0] == 2

    def test_no_detection(self):
        times = detected_times(tailchain.RatioThreshold(0.5), [10.0, 9.0, 8.5, 8.0])
        assert times.size == 0

    def test_alternating_directions(self):
        # after an odd detection the rule looks for re-exceedance
        path = [10.0, 4.0, 5.0, 2.0, 1.9]
        times = detected_times(tailchain.RatioThreshold(0.5), path)
        # 4 <= 5, then 5 > 2, then 2 <= 2.5, then 1.9 > 1.0
        assert list(times) == [1, 2, 3, 4]

    def test_sign_change(self):
        path = [5.0, -4.0, -3.0, 2.0, 1.0]
        times = detected_times(tailchain.SignChange(), path)
        assert list(times) == [1, 3]

    def test_value_change_alternation_break(self):
        path = [5.0, -5.0, 5.0, 1.3, -1.3]
        times = detected_times(tailchain.ValueChange(), path)
        assert list(times) == [3]

    def test_validation(self):
        with pytest.raises(ValidationError):
            tailchain.RatioThreshold(1.5)


class TestForwardVersusLimitProcess:
    """Central consistency check: the normalized forward chain approaches the
    simulated limit process as the conditioning threshold grows.

    For each catalogued triple the two-sample KS between
    (X_t - a_t(v))/b_t(v) | X_0 = v and the simulated M_t decreases along a
    rate-calibrated threshold ladder for t in {1, 2, 3}; one noise violation
    of at most 0.01 is tolerated per (triple, t).
    """

    N = 100_000

    CASES = [
        ("bev_logistic", {"gamma": 0.152},
         ("ht_canonical", {"alpha": 1.0, "beta": 0.0}),
         ("bev_logistic", {"gamma": 0.152}), [2.0, 4.0, 8.0]),
        ("inverted_bev_logistic", {"gamma": 0.152},
         ("ht_canonical", {"alpha": 0.0, "beta": 0.848}),
         ("inverted_bev_logistic", {"gamma": 0.152}), [6.0, 12.0, 24.0]),
        ("gaussian_copula", {"rho": 0.8, "margin": "exponential"},
         ("ht_canonical", {"alpha": 0.64, "beta": 0.5}),
         ("gaussian_exponential", {"rho": 0.8}), [6.0, 12.0, 24.0]),
        ("inverted_max_stable", {"family": "husler_reiss", "gamma": 1.0},
         ("husler_reiss", {"gamma": 1.0}),
         ("husler_reiss", {"gamma": 1.0}),
         [math.exp(5.0), math.exp(10.0), math.exp(20.0)]),
    ]

    @pytest.mark.parametrize("kid,kp,sspec,lspec,grid", CASES)
    def test_ks_decreases_with_threshold(self, kid, kp, sspec, lspec, grid):
        from extreme_chains import diagnostics, kernels

        k = kernels.make_kernel(kid, **kp)
        scheme = norming.make_norming(sspec[0], **sspec[1])
        K = norming.limit_law(lspec[0], **lspec[1])
        rng = np.random.default_rng(41)
        limit = tailchain.simulate_tail_chain(scheme, K, 3, self.N, rng)
        ks = np.empty((len(grid), 3))
        for j, v in enumerate(grid):
            rng_v = np.random.default_rng(np.random.SeedSequence(
                entropy=43, spawn_key=(j,)))
            X = diagnostics.conditional_forward_sim(
                k, k.stationary_law, diagnostics.FixedX0(float(v)), 3,
                self.N, rng_v)
            for t in (1, 2, 3):
                z = (X[:, t] - scheme.a(t, v)) / scheme.b(t, v)
                ks[j, t - 1] = two_sample_ks(z, limit.M[:, t - 1])
        for t in (1, 2, 3):
            col = ks[:, t - 1]
            violations = [b - a for a, b in zip(col, col[1:]) if b >= a]
            assert len(violations) <= 1, (kid, t, col)
            assert all(vv <= 0.01 for vv in violations), (kid, t, col)

    def test_gaussian_margins_chain_exact_at_all_thresholds(self):
        from extreme_chains import diagnostics, kernels

        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="gaussian")
        scheme = norming.make_norming("ht_canonical", alpha=0.8, beta=0.0)
        K = norming.limit_law("gaussian_margins", rho=0.8)
        rng = np.random.default_rng(47)
        limit = tailchain.simulate_tail_chain(scheme, K, 3, self.N, rng)
        for v in (2.0, 4.0, 6.0):
            X = diagnostics.conditional_forward_sim(
                k, k.stationary_law, diagnostics.FixedX0(v), 3, self.N, rng)
            for t in (1, 2, 3):
                z = (X[:, t] - scheme.a(t, v)) / scheme.b(t, v)
                assert two_sample_ks(z, limit.M[:, t - 1]) < 0.01, (v, t)
