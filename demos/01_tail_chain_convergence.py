"""Tail-chain convergence for the Gaussian-copula chain.

The chain with Gaussian copula (rho = 0.8) and unit exponential margins is
asymptotically independent: conditioned on a high state v, the next state
concentrates around 0.64 v with spread sqrt(v).  This script simulates the
normalized one-step kernel at increasing thresholds and watches its KS
distance to the limit law N(0, 0.4608) shrink, then reruns the analysis for
the asymptotically dependent logistic chain where the identity norming works.
"""

import numpy as np

from extreme_chains import diagnostics, kernels, margins, norming

rng = np.random.default_rng(1)
n = 50_000

print("=== Gaussian copula chain, rho = 0.8, exponential margins ===")
k = kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")
scheme = norming.make_norming("ht_canonical", alpha=0.64, beta=0.5)
K = norming.limit_law("gaussian_exponential", rho=0.8)

rows = diagnostics.convergence_table(k, scheme, K, t=1,
                                     v_grid=[6.0, 12.0, 24.0, 48.0],
                                     n=n, seed=1)
print(f"{'v':>6} {'KS vs N(0, 0.4608)':>20}")
for row in rows:
    print(f"{row.v:6.1f} {row.ks:20.4f}")
print("The distance decreases with the threshold, but slowly: this chain")
print("is the canonical slow-convergence example.\n")

print("=== Logistic BEV chain, gamma = 0.152 (asymptotically dependent) ===")
kb = kernels.make_kernel("bev_logistic", gamma=0.152)
sb = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
Kb = norming.limit_law("bev_logistic", gamma=0.152)
for row in diagnostics.convergence_table(kb, sb, Kb, t=1,
                                         v_grid=[6.0, 12.0, 24.0], n=n, seed=2):
    print(f"v = {row.v:5.1f}: KS = {row.ks:.4f}")
print("Here X_1 - v converges quickly: consecutive extremes move together.\n")

print("=== Two-step check against the simulated tail chain ===")
from extreme_chains import tailchain

v = 24.0
z2 = diagnostics.normalized_samples(k, v, scheme, t=2, n=n, rng=rng)
paths = tailchain.simulate_tail_chain(scheme, K, T=2, n=n, rng=rng)
m2 = np.sort(paths.M[:, 1])
ks2 = diagnostics.ks_distance(z2, lambda s: np.searchsorted(m2, s, side="right") / m2.size)
print(f"KS((X_2 - a_2(v))/b_2(v) | X_0 = {v}, simulated M_2) = {ks2:.4f}")

print("\n=== Remainder terms quantify the norming consistency ===")
hr = norming.make_norming("husler_reiss", gamma=1.0)
print("Husler-Reiss scheme: r_a(v, 0) * sqrt(log v) stays bounded:")
for L in (10.0, 20.0, 30.0):
    ra, rb = norming.remainder_terms(hr, 1, np.exp(L), 0.0)
    print(f"  log v = {L:4.0f}: r_a sqrt(log v) = {float(ra) * np.sqrt(L):8.4f}"
          f"   r_b = {float(rb):8.4f}")
exact = norming.make_norming("ht_canonical", alpha=1.0, beta=0.0)
ra, rb = norming.remainder_terms(exact, 3, 1e6, 2.0)
print(f"Random-walk scheme is exact: r_a = {float(ra)}, r_b = {float(rb)}")
