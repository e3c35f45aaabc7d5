"""Rewrite the reference outputs that ``test_reference.py`` and the demo test
compare against: ``python tests/make_reference.py`` from the repository root.

Each config below runs through ``cli.run_experiment`` at one worker.  For every
CSV it writes, ``data/reference/<config>.json`` keeps the header, the row
count, the sha256 of the bytes and every ``step``-th row as written (about
``SAMPLED_ROWS`` rows per file, one CSV line each).  The stdout of each demo goes to
``data/reference/demos/<demo>.txt``.  A change that moves a stream reruns this
script and records which files moved and by how much.
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

# the four demo configs, and the configs of the benchmark's two workloads at
# seed 7
CONFIGS = {
    **{p.stem: json.loads(p.read_text())
       for p in sorted((ROOT / "demos" / "configs").glob("*.json"))},
    "fig1_envelopes": {"kind": "figure1", "seed": 7, "x0": 10.0, "horizon": 15,
                       "n_paths": 10_000, "gamma": 0.152, "phi": 0.8, "rho": 0.8},
    "arch_paths_csv": {"kind": "simulate", "seed": 7,
                       "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
                       "init": {"u": 5.0}, "horizon": 20, "n_paths": 10_000},
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
