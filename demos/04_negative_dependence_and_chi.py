"""Negative dependence and the lag-t tail-dependence diagnostic.

A Gaussian-copula chain with rho = -0.8 on Laplace margins jumps between the
two tails: conditioned on X_0 = 20, the signs of X_1, X_2, X_3 alternate
almost surely, and the alternating norming (-1)^t rho^{2t} v with scale
sqrt(|v|) yields the two-sided tail chain.  The second half estimates
chi_1(u) = P(F(X_1) > u | F(X_0) > u) across thresholds and contrasts the
asymptotically dependent and independent kernels.
"""

import numpy as np

from extreme_chains import diagnostics, kernels, norming, tailchain

rng = np.random.default_rng(3)
n = 50_000

print("=== alternating extremes under negative dependence ===")
k = kernels.make_kernel("gaussian_copula", rho=-0.8, margin="laplace")
X = diagnostics.conditional_forward_sim(k, diagnostics.FixedX0(20.0), 4, n, rng)
for t in range(1, 5):
    frac = np.mean(np.sign(X[:, t]) == (-1) ** t)
    print(f"t = {t}: P(sign(X_t) = (-1)^t) = {frac:.4f}, "
          f"mean X_t = {X[:, t].mean():8.3f}")

scheme = norming.make_norming("alternating_gaussian", rho=-0.8)
K = norming.limit_law("gaussian_exponential", rho=-0.8)
# Theorem 3: innovations producing even steps come from K_plus (K_+), the
# others from K (K_-); this chain has one law for both
paths = tailchain.simulate_tail_chain(scheme, K, 4, n, rng, K_plus=K)
rec = tailchain.reconstruct_paths(20.0, scheme, paths.M)
print("reconstructed tail-chain means:", np.round(rec.mean(axis=0), 3).tolist())
print("actual chain means:           ",
      np.round(X[:, 1:].mean(axis=0), 3).tolist())
print()

print("=== chi_1(u) across thresholds ===")
u_grid = (0.90, 0.95, 0.975, 0.99, 0.995)
cases = [
    ("logistic BEV gamma=0.5 (dependent)",
     kernels.make_kernel("bev_logistic", gamma=0.5)),
    ("Gaussian copula rho=0.8 (independent)",
     kernels.make_kernel("gaussian_copula", rho=0.8, margin="exponential")),
    ("inverted BEV gamma=0.5 (independent)",
     kernels.make_kernel("inverted_bev_logistic", gamma=0.5)),
]
print(f"{'u':>8}" + "".join(f"{name.split()[0]:>16}" for name, _ in cases))
rows = {name: diagnostics.chi_estimate(kern, 1, u_grid, n, seed=5)
        for name, kern in cases}
for j, u in enumerate(u_grid):
    line = f"{u:8.3f}"
    for name, _ in cases:
        line += f"{rows[name][j].estimate:16.4f}"
    print(line)
print(f"\nThe logistic column stabilises near 2 - 2^0.5 = {2 - 2 ** 0.5:.4f};")
print("the other two decay toward zero: extremes de-cluster in the limit.")
