import csv
import json
import math

import numpy as np
import pytest

from extreme_chains import diagnostics, kernels, margins, norming, tailchain
from extreme_chains.errors import DomainError, ValidationError

from _oracles import ZerosFirst, dkw_bound, ks_statistic

np.seterr(all="ignore")


class TestConditionalForwardSim:

    def test_exceedance_memorylessness(self, rng):
        # X_0 - u is exactly unit exponential on the exponential scale
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        X = diagnostics.conditional_forward_sim(
            k, diagnostics.Exceedance(9.0), 0, 100_000, rng)
        assert ks_statistic(X[:, 0] - 9.0, margins.EXPONENTIAL.cdf) < 0.006

    def test_fixed_x0_zero_horizon(self, rng):
        k = kernels.make_kernel("rootzen_smith")
        X = diagnostics.conditional_forward_sim(
            k, diagnostics.FixedX0(10.0), 0, 50, rng)
        assert X.shape == (50, 1)
        assert np.all(X == 10.0)

    def test_gaussian_chain_median_next_step(self, rng):
        # MC oracle: the median of X_1 | X_0 = 10 sits near a(10) + b(10) * 0
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        X = diagnostics.conditional_forward_sim(
            k, diagnostics.FixedX0(10.0), 1, 10_000, rng)
        med = np.median(X[:, 1])
        se = 1.2533 * X[:, 1].std() / math.sqrt(X.shape[0])
        # finite-level bias is positive and of order log(v)-ish / sqrt(v)
        assert abs(med - 6.4) < 3.0 * se + 1.0

    @pytest.mark.parametrize("law", [margins.EXPONENTIAL, margins.LAPLACE],
                             ids=["exponential", "laplace"])
    @pytest.mark.parametrize("u", [30.0, 40.0, 700.0, 2000.0])
    def test_deep_exceedance_start(self, law, u, rng):
        # above u > 0 both laws have an exactly unit exponential excess; the
        # start keeps every draw distinct and above u however deep u sits
        n = 100_000
        x0 = diagnostics.Exceedance(u).draw(law, n, rng)
        assert np.all(x0 > u)
        assert np.unique(x0).size == n
        assert ks_statistic(x0 - u, margins.EXPONENTIAL.cdf) < dkw_bound(n)

    @pytest.mark.parametrize("u", [5.0, -1.0], ids=["above_median", "below_median"])
    def test_exceedance_redraws_a_zero_uniform(self, u):
        # U = 0 would start a path at u itself, not above it
        x0 = diagnostics.Exceedance(u).draw(margins.LAPLACE, 50, ZerosFirst("uniform"))
        assert np.all(x0 > u)

    def test_threshold_beyond_range(self, rng):
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        with pytest.raises(DomainError):
            diagnostics.conditional_forward_sim(
                k, diagnostics.Exceedance(1e310), 1, 10, rng)


def stacked_forward_sim(kernel, init, T, n, rng):
    # reference: the path matrix filled column by column, each step drawn
    # from a view of the column before
    X = np.empty((n, T + 1))
    X[:, 0] = init.draw(kernel.stationary_law, n, rng)
    for t in range(1, T + 1):
        X[:, t] = kernel.sample(X[:, t - 1], rng)
    return X


class TestForwardStates:

    @pytest.mark.parametrize("kernel_id,params,init,n", [
        ("bev_logistic", {"gamma": 0.152}, diagnostics.FixedX0(10.0), 2_000),
        ("gaussian_copula", {"rho": 0.8, "margin": "exponential"},
         diagnostics.FixedX0(10.0), 2_000),
        ("arch_laplace", {"theta0": 1.0, "theta1": 0.7},
         diagnostics.Exceedance(5.0), 2_000),
        # draws by Tawn's construction, several variates per state
        ("asymmetric_logistic", {"phi1": 0.5, "phi2": 0.5, "nu": 0.152},
         diagnostics.Exceedance(9.0), 40),
    ])
    def test_stream_equals_stack(self, kernel_id, params, init, n):
        k = kernels.make_kernel(kernel_id, **params)
        T = 4
        states = list(diagnostics.forward_states(
            k, init, T, n, np.random.default_rng(3)))
        assert len(states) == T + 1
        assert all(x.shape == (n,) for x in states)
        X = np.column_stack(states)
        assert np.array_equal(X, diagnostics.conditional_forward_sim(
            k, init, T, n, np.random.default_rng(3)))
        assert np.array_equal(X, stacked_forward_sim(
            k, init, T, n, np.random.default_rng(3)))

    def test_checks_before_the_first_state(self):
        k = kernels.make_kernel("rootzen_smith")
        for T, n in ((-1, 10), (2, 0)):
            with pytest.raises(ValidationError):
                next(diagnostics.forward_states(
                    k, diagnostics.FixedX0(1.0), T, n,
                    np.random.default_rng(0)))


class TestNormalizedSamples:

    def test_gaussian_one_step(self, rng):
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        s = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        K = norming.limit_law("gaussian_exponential", rho=0.8)
        z = diagnostics.normalized_samples(k, 12.0, s, 1, 100_000, rng)
        assert diagnostics.ks_distance(z, K.cdf) < 0.2

    def test_identity_norming_is_difference(self, rng):
        k = kernels.make_kernel("bev_logistic", gamma=0.152)
        s = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        rng2 = np.random.default_rng(0)
        z = diagnostics.normalized_samples(k, 10.0, s, 1, 1000, rng2)
        rng3 = np.random.default_rng(0)
        X = diagnostics.conditional_forward_sim(
            k, diagnostics.FixedX0(10.0), 1, 1000, rng3)
        np.testing.assert_allclose(z, X[:, 1] - 10.0)

    def test_scale_only_all_positive(self, rng):
        k = kernels.make_kernel("inverted_bev_logistic", gamma=0.152)
        s = norming.make_norming("ht_canonical", alpha=0.0, beta=0.848)
        z = diagnostics.normalized_samples(k, 10.0, s, 2, 5_000, rng)
        assert np.all(z > 0.0)


class TestKsDistance:

    def test_self_sample_within_dkw(self, rng):
        z = rng.standard_normal(100_000)
        from scipy.stats import norm
        assert diagnostics.ks_distance(z, norm.cdf) < 0.006

    def test_constant_sample(self):
        from scipy.stats import norm
        assert diagnostics.ks_distance(np.zeros(100), norm.cdf) >= 0.5

    def test_three_point_hand_computation(self):
        # ECDF steps at 1/3, 2/3, 1 against F(x) = x on [0, 1]
        d = diagnostics.ks_distance(np.array([0.2, 0.5, 0.9]), lambda x: x)
        # |F - ecdf| corners: max(|0.2-0|, |0.2-1/3|, |0.5-1/3|, |0.5-2/3|,
        #                         |0.9-2/3|, |0.9-1|) = 0.2333...
        assert d == pytest.approx(0.9 - 2.0 / 3.0, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(DomainError):
            diagnostics.ks_distance(np.array([]), lambda x: x)

    def test_atom_split(self, rng):
        law = norming.limit_law("asym_logistic_k1", phi1=0.5, phi2=0.5, nu=0.152)
        g1 = norming.limit_law("asym_logistic_g1", phi1=0.5, phi2=0.5, nu=0.152)
        interior = g1.sample(50_000, rng)
        escaped = np.full(50_000, -40.0)
        z = np.concatenate([interior, escaped])
        ks, lo, hi = diagnostics.ks_against_limit(z, law)
        assert lo == pytest.approx(0.5, abs=1e-12)
        assert hi == 0.0
        assert ks < 0.01


class TestConvergenceTable:

    def test_gaussian_ks_decreasing(self):
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        s = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
        K = norming.limit_law("gaussian_exponential", rho=0.8)
        rows = diagnostics.convergence_table(k, s, K, 1, [6.0, 9.0, 12.0],
                                             50_000, seed=11)
        ks = np.array([r.ks for r in rows])
        assert np.all(np.diff(ks) < 0.0)

    def test_asym_logistic_atom_column(self):
        k = kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5, nu=0.152)
        s = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        K1 = norming.limit_law("asym_logistic_k1", phi1=0.5, phi2=0.5, nu=0.152)
        row, = diagnostics.convergence_table(k, s, K1, 1, [30.0], 50_000, seed=2)
        assert abs(row.mass_lo - 0.5) < 0.03
        assert row.ks < 0.02

    def test_csv_schema(self, tmp_path):
        # the table reaches disk through the CLI's converge run
        from extreme_chains import cli
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({
            "kind": "converge", "seed": 3,
            "kernel": {"id": "gaussian_copula", "rho": 0.8,
                       "margin": "exponential"},
            "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
            "limit_law": {"id": "gaussian_exponential", "rho": 0.8},
            "v_grid": [6.0], "n_paths": 2_000, "t": 1}))
        out = tmp_path / "conv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "convergence.csv", newline="") as fh:
            lines = list(csv.reader(fh))
        assert ",".join(lines[0]) == "kernel,scheme,t,v,n,ks,atom_lo,atom_hi,seed"
        assert len(lines) == 2
        row = dict(zip(lines[0], lines[1]))
        assert (row["kernel"], row["scheme"], row["t"]) == (
            "gaussian_copula", "ht_canonical", "1")
        assert float(row["v"]) == 6.0 and int(row["n"]) == 2_000
        assert 0.0 < float(row["ks"]) < 1.0

class TestQuantileEnvelope:

    def test_constant_paths(self):
        env = diagnostics.quantile_envelope(np.full((500, 4), 3.0))
        np.testing.assert_array_equal(env.q025, 3.0)
        np.testing.assert_array_equal(env.mean, 3.0)
        np.testing.assert_array_equal(env.q975, 3.0)
        assert not env.precision_warning

    def test_precision_warning(self):
        env = diagnostics.quantile_envelope(np.zeros((50, 3)))
        assert env.precision_warning

    @pytest.mark.parametrize("n", [1, 50, 1000])
    def test_bands_equal_their_single_quantiles(self, rng, n):
        # both bands come from one call; each must equal its own np.quantile,
        # also on rounded (tied) values and on a single path
        for paths in (rng.standard_normal((n, 5)),
                      np.round(rng.standard_normal((n, 5)), 1)):
            env = diagnostics.quantile_envelope(paths)
            assert np.array_equal(env.q025, np.quantile(paths, 0.025, axis=0))
            assert np.array_equal(env.q975, np.quantile(paths, 0.975, axis=0))

    @pytest.mark.parametrize("kernel_id,params", [
        ("bev_logistic", {"gamma": 0.152}),
        ("gaussian_copula", {"rho": 0.8, "margin": "exponential"}),
    ])
    def test_streamed_envelope_equals_stacked(self, kernel_id, params):
        # a step-by-step envelope has the bands of np.quantile over the path
        # matrix exactly; its mean sums each step pairwise, so only the last
        # digits of the sequential axis-0 sum may differ
        k = kernels.make_kernel(kernel_id, **params)
        init, T, n = diagnostics.FixedX0(10.0), 6, 5_000
        X = diagnostics.conditional_forward_sim(
            k, init, T, n, np.random.default_rng(8))[:, 1:]
        states = diagnostics.forward_states(
            k, init, T, n, np.random.default_rng(8))
        next(states)
        env = diagnostics.quantile_envelope(states, t_start=1)
        q025, q975 = np.quantile(X, [0.025, 0.975], axis=0)
        assert np.array_equal(env.q025, q025)
        assert np.array_equal(env.q975, q975)
        np.testing.assert_allclose(env.mean, X.mean(axis=0), rtol=1e-13, atol=0)
        np.testing.assert_array_equal(env.t, np.arange(1, T + 1))
        assert env.n_paths == n and not env.precision_warning
        assert np.array_equal(diagnostics.quantile_envelope(X).q025, q025)

    def test_bev_chain_envelope_tight(self, rng):
        # asymptotically dependent chain stays within +-3 of the start
        k = kernels.make_kernel("bev_logistic", gamma=0.152)
        X = diagnostics.conditional_forward_sim(
            k, diagnostics.FixedX0(10.0), 3, 10_000, rng)
        env = diagnostics.quantile_envelope(X[:, 1:], t_start=1)
        assert np.all(env.q025 > 7.0)
        assert np.all(env.q975 < 13.0)


class TestChiEstimate:

    def test_independent_chain_matches_one_minus_u(self, rng):
        # independence: chi_t(u) = 1 - u exactly; emulate with a kernel that
        # ignores its state (tail-switch with flip probability ~ 0)
        class FreshKernel(kernels.RootzenSmithKernel):
            def sample(self, x, rng):
                return margins.LAPLACE.ppf(rng.uniform(size=np.shape(x)))

        rows = diagnostics.chi_estimate(FreshKernel(), 1, [0.8, 0.9, 0.95], 100_000,
                                        seed=5)
        for row in rows:
            assert abs(row.estimate - (1.0 - row.u)) < 0.01

    def test_bev_logistic_stabilizes(self):
        k = kernels.make_kernel("bev_logistic", gamma=0.5)
        rows = diagnostics.chi_estimate(k, 1, [0.9, 0.95, 0.99], 50_000, seed=6)
        assert abs(rows[-1].estimate - (2.0 - 2.0 ** 0.5)) < 0.03
        assert not rows[-1].flagged

    def test_gaussian_copula_decays(self):
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        rows = diagnostics.chi_estimate(k, 1, [0.9, 0.95, 0.99, 0.995], 50_000, seed=7)
        est = [r.estimate for r in rows]
        assert all(b < a for a, b in zip(est, est[1:]))

    def test_flagged_rows(self):
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        rows = diagnostics.chi_estimate(k, 1, [0.999], 100, seed=8)
        assert rows[0].flagged

    def test_u_domain(self):
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
        with pytest.raises(DomainError):
            diagnostics.chi_estimate(k, 1, [1.2], 100, seed=9)


class TestChangepointLaw:

    def test_direct_geometric_self_check(self, rng):
        # simulate the latent geometric directly and compare with its own law
        n, H = 10_000, 30
        term = rng.geometric(0.5, size=n)
        paths = np.zeros((n, H + 1))
        paths[:, 0] = 10.0
        for i in range(n):
            t = term[i]
            if t <= H:
                paths[i, 1:t] = 10.0
                paths[i, t:] = 1.0    # drop below c * prev once, then stay
            else:
                paths[i, 1:] = 10.0
        tv = diagnostics.changepoint_law_check(
            paths, tailchain.RatioThreshold(0.5), 0.5)
        assert tv < 0.02

    def test_asym_logistic_changepoint_law(self):
        rng = np.random.default_rng(12)
        k = kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5, nu=0.152)
        X = diagnostics.conditional_forward_sim(
            k, diagnostics.Exceedance(9.0), 20, 20_000, rng)
        tv = diagnostics.changepoint_law_check(
            X, tailchain.RatioThreshold(0.5), 0.5)
        assert tv < 0.05

    def test_mixture_changepoint_law(self):
        rng = np.random.default_rng(13)
        k = kernels.make_kernel(
            "ht_mixture", lam=0.5,
            k1={"id": "gaussian_copula", "rho": 0.95, "margin": "exponential"},
            k2={"id": "inverted_bev_logistic", "gamma": 0.9})
        X = diagnostics.conditional_forward_sim(
            k, diagnostics.Exceedance(9.0), 20, 20_000, rng)
        tv = diagnostics.changepoint_law_check(
            X, tailchain.RatioThreshold(k.alpha1 / 2.0), 0.5)
        assert tv < 0.05

    def test_truncation_bookkeeping(self):
        # all mass beyond the horizon lands in the shared bucket on both sides
        paths = np.full((100, 4), 10.0)
        tv = diagnostics.changepoint_law_check(
            paths, tailchain.RatioThreshold(0.5), 0.5, horizon=3)
        # empirical: everything truncated; geometric: 1 - 0.5^3 mass inside
        assert tv == pytest.approx(1.0 - 0.5 ** 3, abs=1e-12)

    def test_negative_horizon_is_refused(self):
        with pytest.raises(ValidationError):
            diagnostics.changepoint_law_check(
                np.full((10, 4), 10.0), tailchain.RatioThreshold(0.5), 0.5,
                horizon=-1)


class TestCatalogueTripleConvergence:
    """Monotone KS decay for every catalogued (kernel, scheme, limit) triple.

    Each triple carries a threshold ladder calibrated to its convergence
    rate; one noise violation of at most 0.01 is tolerated.  The chain with
    Gaussian margins satisfies its limit exactly at every threshold, so it
    is checked against the sampling-noise bound instead.
    """

    TRIPLES = [
        ("bev_logistic", {"gamma": 0.152},
         "ht_canonical", {"alpha": 1.0, "beta": 0.0},
         "bev_logistic", {"gamma": 0.152}, [2.0, 4.0, 8.0]),
        ("inverted_bev_logistic", {"gamma": 0.152},
         "ht_canonical", {"alpha": 0.0, "beta": 0.848},
         "inverted_bev_logistic", {"gamma": 0.152}, [6.0, 12.0, 24.0]),
        ("gaussian_copula", {"rho": 0.8, "margin": "exponential"},
         "ht_canonical", {"alpha": 0.64, "beta": 0.5},
         "gaussian_exponential", {"rho": 0.8}, [6.0, 12.0, 24.0]),
        ("inverted_max_stable", {"family": "husler_reiss", "gamma": 1.0},
         "husler_reiss", {"gamma": 1.0},
         "husler_reiss", {"gamma": 1.0},
         [math.exp(5.0), math.exp(10.0), math.exp(20.0)]),
    ]

    @pytest.mark.parametrize("kid,kp,sid,sp,lid,lp,grid", TRIPLES)
    def test_ks_monotone_nonincreasing(self, kid, kp, sid, sp, lid, lp, grid):
        k = kernels.make_kernel(kid, **kp)
        s = norming.make_norming(sid, **sp)
        K = norming.limit_law(lid, **lp)
        rows = diagnostics.convergence_table(k, s, K, 1, grid, 50_000, seed=29)
        ks = [r.ks for r in rows]
        violations = [b - a for a, b in zip(ks, ks[1:]) if b >= a]
        assert len(violations) <= 1, ks
        assert all(v <= 0.01 for v in violations), ks

    def test_gaussian_margins_triple_exact(self):
        k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="gaussian")
        s = norming.make_norming("ht_canonical", alpha=0.8, beta=0.0)
        K = norming.limit_law("gaussian_margins", rho=0.8)
        rows = diagnostics.convergence_table(k, s, K, 1, [2.0, 4.0, 6.0],
                                             50_000, seed=31)
        for row in rows:
            assert row.ks < 0.008, row

    def test_bev_logistic_small_at_moderate_threshold(self):
        # the asymptotically dependent chain is already close at v = 12
        k = kernels.make_kernel("bev_logistic", gamma=0.152)
        s = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
        K = norming.limit_law("bev_logistic", gamma=0.152)
        row, = diagnostics.convergence_table(k, s, K, 1, [12.0], 50_000, seed=37)
        assert row.ks < 0.05


def test_mixture_mass_escape_under_alpha2_norming():
    # under the weaker norming the dominant-mode draws run off upward with
    # probability lambda
    rng = np.random.default_rng(53)
    lam = 0.5
    k = kernels.make_kernel(
        "ht_mixture", lam=lam,
        k1={"id": "gaussian_copula", "rho": 0.95, "margin": "exponential"},
        k2={"id": "inverted_bev_logistic", "gamma": 0.9})
    v = 100.0   # the escaping mode sits at (alpha1 v)/v**beta2 ~ 57 >> 20
    x1 = k.sample(np.full(100_000, v), rng)
    z = (x1 - k.alpha2 * v) / v ** k.beta2
    law = norming.limit_law("inverted_bev_logistic", gamma=0.9)
    ks, lo, hi = diagnostics.ks_against_limit(z, law)
    assert abs(hi - lam) < 0.03
    assert lo == 0.0
    assert ks < 0.02
