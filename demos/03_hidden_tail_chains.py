"""Hidden tail chains: what the naive norming collapses, change-points reveal.

Three stories:
 1. the asymmetric-logistic chain follows the extreme with probability 1/2
    per step and otherwise drops to the body -- under the identity norming
    half the limit mass escapes to -infinity, and the change-point-adapted
    chain restarts from a fresh exponential at a geometric time;
 2. the tail-switching chain alternates between x0 and -x0 exactly until a
    geometric termination, after which it forgets the extreme;
 3. the volatility chain on Laplace margins flips sign at change-points with
    innovations alternating between upper- and lower-tail limit laws.
"""

import numpy as np

from extreme_chains import (diagnostics, kernels, margins, numerics, norming,
                            tailchain)

rng = np.random.default_rng(7)

print("=== 1. asymmetric logistic, phi1 = phi2 = 0.5, nu = 0.152 ===")
k = kernels.make_kernel("asymmetric_logistic", phi1=0.5, phi2=0.5, nu=0.152)
X1 = k.sample(np.full(50_000, 30.0), rng)
print(f"mass escaping 20 units below v = 30: {np.mean(X1 - 30 < -20):.3f}"
      " (limit: 1 - phi1 = 0.5)")

X = diagnostics.conditional_forward_sim(
    k, margins.EXPONENTIAL, diagnostics.Exceedance(9.0), 20, 30_000, rng)
tv = diagnostics.changepoint_law_check(X, tailchain.RatioThreshold(0.5), 0.5)
print(f"TV(first crossing of X_t <= X_t-1 / 2, Geometric(1/2)) = {tv:.4f}")

h = tailchain.hidden_asym_logistic(0.5, 0.5, 0.152, 12, 30_000, rng)
first = tailchain.first_times(h.is_changepoint)
has = first <= h.horizon
restart = h.M[has, first[has] - 1]
print(f"restart values vs Exp(1): KS = "
      f"{diagnostics.ks_distance(restart, margins.EXPONENTIAL.cdf):.4f}\n")

print("=== 2. tail-switching chain ===")
hr = tailchain.hidden_rootzen_smith(8, 30_000, rng)
frozen = np.mean(hr.M[:, 0] == 0.0)
print(f"P(still alternating after one step) = {frozen:.3f} (limit 0.5)")
one = np.flatnonzero(tailchain.first_times(hr.is_changepoint) == 4)[0]
print(f"one path (M_t, frozen until the termination time 4): "
      f"{np.round(hr.M[one], 3).tolist()}\n")

print("=== 3. volatility chain with Laplace margins, theta1 = 0.7 ===")
kappa = numerics.arch_tail_index(0.7)
print(f"tail index kappa from the moment equation: {kappa:.4f}")
ha = tailchain.hidden_arch(1.0, 0.7, 10, 30_000, rng)
flip_rate = ha.is_changepoint.mean()
print(f"per-step sign-flip frequency: {flip_rate:.3f} (limit 0.5)")
gp = norming.limit_law("arch_g_plus", theta1=0.7, kappa=kappa)
clean = ~ha.is_changepoint[:, :4].any(axis=1)
inc = ha.M[clean, 3] - ha.M[clean, 2]
print(f"innovations between flips vs G_+: KS = "
      f"{diagnostics.ks_distance(inc, gp.cdf):.4f}")

print("\n=== mixture chain: six transition behaviours across both orderings ===")
G1 = norming.limit_law("gaussian_exponential", rho=0.95)
G2 = norming.limit_law("inverted_bev_logistic", gamma=0.9)
labels = {1: "alpha1 M + innovation", 2: "alpha2 M + innovation",
          3: "innovation only (mode 1)", 4: "innovation only (mode 2)",
          5: "alpha1 M (deterministic)", 6: "alpha2 M (deterministic)"}
for b1, b2 in ((0.5, 0.1), (0.1, 0.5)):
    hm = tailchain.hidden_ht_mixture(0.5, (0.9025, b1, G1), (0.3, b2, G2),
                                     10, 20_000, rng)
    counts = {c: int(np.sum(hm.case == c)) for c in labels}
    total = sum(counts.values())
    print(f"beta1 = {b1}, beta2 = {b2}:")
    for c, lab in labels.items():
        if counts[c]:
            print(f"  case {c} ({lab}): {counts[c] / total:.3%} of steps")
print("Which degenerate rows fire depends on the ordering of beta1, beta2.")
