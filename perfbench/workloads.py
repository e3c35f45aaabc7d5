"""The benchmark's workloads: config from a seed, CLI settings and output checks.

Each workload turns ``--seed`` into one experiment config for
``python -m extreme_chains.cli run``.  The seed only sets the config's master
seed; sizes and parameters are fixed so that timings of different seeds
measure the same amount of work.  ``scale`` shrinks the path count for the
benchmark's own smoke tests.
"""

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Kernel ids the workloads build; per-kernel layer metrics carry these suffixes.
KERNEL_IDS = ("bev_logistic", "inverted_bev_logistic", "expar",
              "gaussian_copula", "arch_laplace")

FIG1_GAMMA, FIG1_PHI, FIG1_RHO = 0.152, 0.8, 0.8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    make_config: Callable       # (seed, scale) -> config dict
    transitions: Callable       # config -> chain transitions the config fixes
    builds: dict                # kernels / schemes / laws the run constructs
    check: Callable             # (out_dir, config) -> list of problems


def _paths(n, scale):
    return max(50, int(round(n * scale)))


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# ---------------------------------------------------------------------------
# fig1_envelopes
# ---------------------------------------------------------------------------

def _fig1_config(seed, scale):
    return {"kind": "figure1", "seed": int(seed), "x0": 10.0, "horizon": 15,
            "n_paths": _paths(10_000, scale), "gamma": FIG1_GAMMA,
            "phi": FIG1_PHI, "rho": FIG1_RHO}


def _fig1_check(out_dir, config):
    problems = []
    T, n = config["horizon"], config["n_paths"]
    tail_sources = {"i": True, "ii": True, "iii": False, "iv": True}
    means = {}
    for tag, has_tail in tail_sources.items():
        _, rows = read_rows(os.path.join(out_dir, f"chain_{tag}.csv"))
        by_source = {}
        for source, t, lo, mean, hi in rows:
            by_source.setdefault(source, []).append(
                (int(t), float(lo), float(mean), float(hi)))
        expected = {"actual", "tailchain"} if has_tail else {"actual"}
        if set(by_source) != expected:
            problems.append(f"chain {tag}: sources {sorted(by_source)}")
            continue
        for source, vals in by_source.items():
            if [v[0] for v in vals] != list(range(1, T + 1)):
                problems.append(f"chain {tag} {source}: steps are not 1..{T}")
            if not all(lo <= mean <= hi for _, lo, mean, hi in vals):
                problems.append(f"chain {tag} {source}: mean outside q025..q975")
            means[tag, source] = vals[0]
    # Chain i (random-walk regime, identity norming): at t = 1 the actual
    # chain and its tail chain share a mean up to sampling error.  The spread
    # comes from the 95% band; the check is statistical, not byte-exact.
    if ("i", "actual") in means and ("i", "tailchain") in means:
        _, lo_a, m_a, hi_a = means["i", "actual"]
        _, lo_t, m_t, hi_t = means["i", "tailchain"]
        sd = max(hi_a - lo_a, hi_t - lo_t) / 3.92
        tol = 6.0 * math.sqrt(2.0) * sd / math.sqrt(n)
        if abs(m_a - m_t) > tol:
            problems.append(f"chain i t=1: actual mean {m_a:.5f} vs tail chain "
                            f"{m_t:.5f} differ by more than {tol:.5f}")
    return problems


FIG1 = Workload(
    name="fig1_envelopes",
    why="The paper's four-chain envelope study in one process: bisection "
        "sampling of the logistic chains dominates; it also drives the "
        "tail-chain simulators and the envelopes.",
    workers=1,
    make_config=_fig1_config,
    # four actual chains plus three tail chains (chain iii has no limit law)
    transitions=lambda c: 7 * c["n_paths"] * c["horizon"],
    builds={
        "kernels": [{"id": "bev_logistic", "gamma": FIG1_GAMMA},
                    {"id": "inverted_bev_logistic", "gamma": FIG1_GAMMA},
                    {"id": "expar", "phi": FIG1_PHI},
                    {"id": "gaussian_copula", "rho": FIG1_RHO,
                     "margin": "exponential"}],
        "schemes": [{"id": "ht_canonical", "alpha": 1.0, "beta": 0.0},
                    {"id": "ht_canonical", "alpha": 0.0, "beta": 1.0 - FIG1_GAMMA},
                    {"id": "ht_canonical", "alpha": FIG1_PHI, "beta": 0.0},
                    {"id": "ht_canonical", "alpha": FIG1_RHO ** 2, "beta": 0.5}],
        "laws": [{"id": "bev_logistic", "gamma": FIG1_GAMMA},
                 {"id": "inverted_bev_logistic", "gamma": FIG1_GAMMA},
                 {"id": "gaussian_exponential", "rho": FIG1_RHO}],
    },
    check=_fig1_check,
)


# ---------------------------------------------------------------------------
# arch_paths_csv
# ---------------------------------------------------------------------------

def _arch_config(seed, scale):
    return {"kind": "simulate", "seed": int(seed),
            "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
            "init": {"u": 5.0}, "horizon": 20,
            "n_paths": _paths(10_000, scale)}


def _arch_check(out_dir, config):
    problems = []
    n, T = config["n_paths"], config["horizon"]
    data = np.loadtxt(os.path.join(out_dir, "paths.csv"), delimiter=",",
                      skiprows=1, ndmin=2)
    if data.shape != (n * (T + 1), 3):
        return [f"paths.csv has shape {data.shape}, want {(n * (T + 1), 3)}"]
    if not np.all(np.isfinite(data[:, 2])):
        problems.append("paths.csv holds non-finite values")
    x0 = data[data[:, 1] == 0, 2]
    if x0.size != n or not np.all(x0 > config["init"]["u"]):
        problems.append("some X_0 does not exceed the threshold u")
    return problems


ARCH = Workload(
    name="arch_paths_csv",
    why="ARCH paths from an exceedance through a direct sampler, so bisection "
        "is bypassed; the stationary fit paid per worker and serial CSV "
        "emission dominate.",
    workers=2,
    make_config=_arch_config,
    transitions=lambda c: c["n_paths"] * c["horizon"],
    builds={"kernels": [{"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7}],
            "schemes": [], "laws": []},
    check=_arch_check,
)


WORKLOADS = {w.name: w for w in (FIG1, ARCH)}


# ---------------------------------------------------------------------------
# checks every workload shares
# ---------------------------------------------------------------------------

def csv_files(out_dir):
    return sorted(f for f in os.listdir(out_dir) if f.endswith(".csv"))


def output_digest(out_dir):
    """SHA-256 over every CSV artefact (name and bytes, in name order).

    The manifest is left out: it records the run's wall time.
    """
    h = hashlib.sha256()
    for name in csv_files(out_dir):
        h.update(name.encode() + b"\0")
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _check_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    listed = {e["file"]: e["rows"] for e in manifest["outputs"]}
    if sorted(listed) != csv_files(out_dir):
        return [f"manifest lists {sorted(listed)}, directory holds "
                f"{csv_files(out_dir)}"]
    problems = []
    for name, rows in listed.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            lines = fh.read().count(b"\n")
        if lines - 1 != rows:
            problems.append(f"{name}: manifest says {rows} rows, file has "
                            f"{lines - 1}")
    return problems


def check_run(workload, out_dir, config):
    """Every problem found in one run's output directory (empty when correct)."""
    try:
        problems = _check_manifest(out_dir)
        return problems or workload.check(out_dir, config)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
