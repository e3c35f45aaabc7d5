"""Envelope study for four chains started from the common extreme x0 = 10.

Reproduces the four-panel comparison: per-step 2.5%/mean/97.5% envelopes of
the actual chain against the reconstruction a_t(x0) + b_t(x0) M_t from the
simulated limit process.  Chain (iii) has no known limiting kernel, so only
its actual envelopes appear.  Runs the command-line runner's `figure1` config
through `cli.run_experiment`, reads the `chain_*.csv` files it writes and
prints a compact table.
"""

import csv
import os
import tempfile

from extreme_chains import cli

SEED = 99
X0, HORIZON, N = 10.0, 15, 10_000

chains = {
    "i":   "logistic BEV (asymptotically dependent)",
    "ii":  "inverted logistic BEV",
    "iii": "exponential autoregression (no limit kernel known)",
    "iv":  "Gaussian copula",
}

with tempfile.TemporaryDirectory() as out:
    cli.run_experiment({"kind": "figure1", "seed": SEED, "x0": X0,
                        "horizon": HORIZON, "n_paths": N}, out)
    for tag in chains:
        with open(os.path.join(out, f"chain_{tag}.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        actual = [r for r in rows if r["source"] == "actual"]
        tc = [r for r in rows if r["source"] == "tailchain"]
        print(f"--- chain ({tag}): {chains[tag]} ---")
        print(f"{'t':>3} {'actual q025':>12} {'actual mean':>12} {'actual q975':>12}"
              f" {'tc mean':>9}")
        for j in range(5):
            tc_mean = f"{float(tc[j]['mean']):9.3f}" if tc else "      --"
            a = actual[j]
            print(f"{int(a['t']):3d} {float(a['q025']):12.3f} {float(a['mean']):12.3f}"
                  f" {float(a['q975']):12.3f} {tc_mean}")
        print()

print("Reading the table:")
print(" * chain (i) hovers near 10 for several steps: extremes persist;")
print(" * chains (ii)-(iv) decay toward the body at their alpha rates, and")
print("   the tail-chain envelopes track the first few steps;")
print(" * for (iv) the approximation sits visibly below the actual mean at")
print("   t = 1 (about 0.8 on this scale): the documented slow convergence.")
