"""Rewrite the reference outputs that ``test_reference.py`` and the demo test
compare against: ``python tests/make_reference.py`` from the repository root.

Each config below runs through ``cli.run_experiment`` at one worker.  For every
CSV it writes, ``data/reference/<config>.json`` keeps the header, the row
count, the sha256 of the bytes and every ``step``-th row as written (about
``SAMPLED_ROWS`` rows per file, one CSV line each).  The stdout of each demo goes to
``data/reference/demos/<demo>.txt``.  A change that moves a stream reruns this
script and records which files moved and by how much.

Run it at one BLAS thread, ``OPENBLAS_NUM_THREADS=1 python
tests/make_reference.py``: the ARCH law's linear solve rounds differently
under OpenBLAS's threads, and the reference is taken at one.
"""

import csv
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "data" / "reference"
SAMPLED_ROWS = 200

_SMALL = {"seed": 7, "n_paths": 2_000}


def _simulate(kernel, init=None):
    return {"kind": "simulate", **_SMALL, "kernel": kernel,
            "init": init or {"u": 5.0}, "horizon": 10}


def _hidden(example, **params):
    return {"kind": "hidden", **_SMALL, "example": example, "horizon": 10,
            "params": params}


def _converge(kernel, scheme, law, v_grid):
    return {"kind": "converge", **_SMALL, "kernel": kernel, "scheme": scheme,
            "limit_law": law, "v_grid": v_grid}


def _inverted(family, **params):
    return {"id": "inverted_max_stable", "family": family, **params}


_HT_UNIT = {"id": "ht_canonical", "alpha": 1.0, "beta": 0.0}
_ARCH = {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7}
_ASYM = {"phi1": 0.4, "phi2": 0.7, "nu": 0.3}
_EXP_DECAY = {"delta": 0.0, "gamma": 1.0, "kappa": 1.0}

# the four demo configs, the configs of the benchmark's two workloads at seed
# 7, and one small config per kernel id, exponent family, copula margin,
# hidden example and kind not covered by those, and per limit law that a
# kernel converges to from a start v.  asym_logistic_g1 is the continuous part
# of asym_logistic_k1, whose cdf it shares; asym_logistic_k2 and exponential
# are the laws of a step from the body, where no converge run starts; and
# expar has no limit law.
CONFIGS = {
    **{p.stem: json.loads(p.read_text())
       for p in sorted((ROOT / "demos" / "configs").glob("*.json"))},
    "fig1_envelopes": {"kind": "figure1", "seed": 7, "x0": 10.0, "horizon": 15,
                       "n_paths": 10_000, "gamma": 0.152, "phi": 0.8, "rho": 0.8},
    "arch_paths_csv": {"kind": "simulate", "seed": 7,
                       "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
                       "init": {"u": 5.0}, "horizon": 20, "n_paths": 10_000},
    "sim_asymmetric_logistic": _simulate({"id": "asymmetric_logistic", **_ASYM}),
    "sim_ht_mixture": _simulate({"id": "ht_mixture", "lam": 0.5,
                                 "k1": {"id": "gaussian_copula", "rho": 0.95},
                                 "k2": {"id": "inverted_bev_logistic", "gamma": 0.9}}),
    "sim_rootzen_smith": _simulate({"id": "rootzen_smith", "p_flip": 0.5}),
    "sim_copula_laplace": _simulate({"id": "gaussian_copula", "rho": -0.6,
                                     "margin": "laplace"}, {"x0": -4.0}),
    "sim_copula_gaussian": _simulate({"id": "gaussian_copula", "rho": 0.6,
                                      "margin": "gaussian"}, {"u": 2.0}),
    "sim_husler_reiss": _simulate(_inverted("husler_reiss", gamma=1.0)),
    "sim_density_logistic": _simulate(_inverted("logistic", gamma=0.3)),
    "sim_density_constant": _simulate(_inverted("constant")),
    "sim_density_power_decay": _simulate(_inverted("power_decay", s=0.2)),
    "sim_density_exp_decay": _simulate(_inverted("exp_decay", **_EXP_DECAY)),
    "hidden_asym_logistic": _hidden("asym_logistic", phi1=0.5, phi2=0.5, nu=0.152),
    "hidden_rootzen_smith": _hidden("rootzen_smith"),
    "hidden_ht_mixture": _hidden(
        "ht_mixture", alpha1=0.9025, beta1=0.5,
        g1={"id": "gaussian_exponential", "rho": 0.95}, alpha2=0.3, beta2=0.1,
        g2={"id": "inverted_bev_logistic", "gamma": 0.9}),
    "negdep": {"kind": "negdep", **_SMALL, "rho": -0.8, "x0": 1.0, "horizon": 3},
    "converge_gaussian_margins": _converge(
        {"id": "gaussian_copula", "rho": 0.8, "margin": "gaussian"},
        {"id": "ht_canonical", "alpha": 0.8, "beta": 0.0},
        {"id": "gaussian_margins", "rho": 0.8}, [3.0, 6.0]),
    "converge_bev_logistic": _converge({"id": "bev_logistic", "gamma": 0.5}, _HT_UNIT,
                                       {"id": "bev_logistic", "gamma": 0.5}, [6.0, 12.0]),
    "converge_inverted_bev_logistic": _converge(
        {"id": "inverted_bev_logistic", "gamma": 0.5},
        {"id": "ht_canonical", "alpha": 0.0, "beta": 0.5},
        {"id": "inverted_bev_logistic", "gamma": 0.5}, [6.0, 12.0]),
    "converge_husler_reiss": _converge(
        _inverted("husler_reiss", gamma=1.0), {"id": "husler_reiss", "gamma": 1.0},
        {"id": "husler_reiss", "gamma": 1.0}, [12.0, 24.0]),
    "converge_density_decay": _converge(
        _inverted("exp_decay", **_EXP_DECAY), {"id": "density_decay", **_EXP_DECAY},
        {"id": "density_decay", "gamma": 1.0, "delta": 0.0}, [12.0, 24.0]),
    "converge_asym_logistic_k1": _converge(
        {"id": "asymmetric_logistic", **_ASYM}, _HT_UNIT,
        {"id": "asym_logistic_k1", **_ASYM}, [12.0, 24.0]),
    "converge_arch_g_plus": _converge(_ARCH, _HT_UNIT,
                                      {"id": "arch_g_plus", "theta1": 0.7,
                                       "kappa": 3.171958}, [12.0, 24.0]),
    "converge_arch_g_minus": _converge(_ARCH, _HT_UNIT,
                                       {"id": "arch_g_minus", "theta1": 0.7,
                                        "kappa": 3.171958}, [-12.0, -24.0]),
}


def read_csv(path):
    """The header, the rows and the sha256 of the CSV at ``path``."""
    data = Path(path).read_bytes()
    header, *rows = csv.reader(data.decode().splitlines())
    return header, rows, hashlib.sha256(data).hexdigest()


def run_config(name, out_dir):
    """``{file name: (header, rows, sha256)}`` of the CSVs that config
    ``name`` writes into ``out_dir`` at one worker."""
    from extreme_chains import cli      # run as a script, main puts src/ on the path first
    outputs = cli.run_experiment(CONFIGS[name], str(out_dir), workers=1)
    return {os.path.basename(p): read_csv(p) for p, _ in outputs}


def _prime_at_least(n):
    return next(k for k in itertools.count(max(n, 2))
                if all(k % d for d in range(2, math.isqrt(k) + 1)))


def summarise(header, rows, digest):
    """The reference entry of one CSV.  Its rows are sampled at a prime step,
    which no path's row count divides, so the sample visits every time step
    and not only t = 0."""
    step = 1 if len(rows) <= SAMPLED_ROWS else _prime_at_least(len(rows) // SAMPLED_ROWS)
    return {"header": header, "rows": len(rows), "sha256": digest, "step": step,
            "sample": [",".join(r) for r in rows[::step]]}


def run_python(args):
    """``python args`` from the repository root with ``src`` on the path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def main():
    sys.path.insert(0, str(ROOT / "src"))
    (REFERENCE / "demos").mkdir(parents=True, exist_ok=True)
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as out:
            files = {f: summarise(*csv_) for f, csv_ in run_config(name, out).items()}
        (REFERENCE / f"{name}.json").write_text(json.dumps(files, indent=1) + "\n")
        print(name, ", ".join(f"{f} ({s['rows']} rows)" for f, s in files.items()))
    for demo in sorted((ROOT / "demos").glob("*.py")):
        done = run_python([str(demo)])
        if done.returncode:
            sys.exit(f"{demo.name} failed:\n{done.stderr}")
        (REFERENCE / "demos" / f"{demo.stem}.txt").write_text(done.stdout)
        print(demo.name)


if __name__ == "__main__":
    main()
