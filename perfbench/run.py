"""Benchmark of the ``extreme-chains`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``workloads.py``, or ``all`` to run each in
turn.  Every run builds the workload's config from the seed and checks every
output it produces.

``--trace 0`` gives the end-to-end metrics.  It runs
``python -m extreme_chains.cli run`` back to back, one fresh process each,
and SETUP_REPS fresh set-up processes (import plus kernel/scheme/law
construction) spread evenly among them, until they fill S seconds (at least
MIN_RUNS runs).  It reports medians.

``--trace 1`` gives the per-layer metrics: set-up processes again, one CLI
run with two workers, and two ``tracer.py`` children that each call
``cli.run_experiment(workers=1)`` in-process, the second with spans around
every layer.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file with the run's provenance goes to ``perfbench/_out/results``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import PER_LAYER, layer_metrics
from workloads import WORKLOADS, check_run, csv_files, output_digest

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
OUT = HERE / "_out"
SRC = ROOT / "src"

SETUP_REPS = 3
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"run_s": "s", "cpu_s": "s", "transitions_per_s": "1/s",
              "setup_s": "s", "peak_rss_mb": "MB"}
UNITS = dict(PER_LAYER, **END_TO_END)


@dataclass
class Child:
    returncode: int
    wall_s: float
    cpu_s: float          # user + system, the process and its reaped workers
    rss_mb: float         # largest resident set of the process or a worker
    stdout: str
    stderr: str


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: "1" for var in THREAD_VARS})
    return env


def spawn(argv, work):
    """Run one child to completion and return its wall time and rusage.

    ``os.wait4`` reports the child together with every descendant it reaped,
    so a CLI run's pool workers count in its CPU time and peak RSS.
    """
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=err, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                 (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out_path.read_text(),
                 err_path.read_text())


# ---------------------------------------------------------------------------
# the pieces of one run
# ---------------------------------------------------------------------------

class Bench:
    """State of one benchmark run on one workload."""

    def __init__(self, workload, seed, scale, work):
        self.workload = workload
        self.work = work
        self.config = workload.make_config(seed, scale)
        self.config_path = work / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.attempted = 0
        self.failures = []          # one line per failed child or check
        self.digests = {}           # output label -> CSV digest
        self.versions = {}
        self.argvs = []

    def setup_probe(self):
        argv = [sys.executable, str(HERE / "setup_probe.py"),
                json.dumps(self.workload.builds)]
        self.attempted += 1
        child = spawn(argv, self.work)
        if child.returncode != 0:
            self.failures.append(f"setup probe exited {child.returncode}: "
                      f"{child.stderr.strip()[-300:]}")
            return child, None
        return child, json.loads(child.stdout.strip().splitlines()[-1])

    def check_output(self, label, out_dir):
        """Check one output directory; record its digest; True when correct."""
        problems = check_run(self.workload, out_dir, self.config)
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
            return False
        self.digests[label] = output_digest(out_dir)
        return True

    def cli_run(self, label, workers):
        out_dir = self.work / label
        argv = [sys.executable, "-m", "extreme_chains.cli", "run",
                "--config", str(self.config_path.relative_to(ROOT)),
                "--out", str(out_dir.relative_to(ROOT)),
                "--workers", str(workers)]
        self.argvs.append(argv)
        self.attempted += 1
        child = spawn(argv, self.work)
        if child.returncode != 0:
            self.failures.append(f"{label} exited {child.returncode}: "
                      f"{child.stderr.strip()[-300:]}")
        elif self.check_output(label, out_dir) and not self.versions:
            with open(out_dir / "manifest.json") as fh:
                self.versions = json.load(fh)["versions"]
        shutil.rmtree(out_dir, ignore_errors=True)
        return child

    def check_digests(self):
        """All outputs of this seed, now and in earlier runs of this code, agree."""
        if not self.digests:
            return
        key = f"{source_digest()}:{self.workload.name}:{json.dumps(self.config, sort_keys=True)}"
        registry_path = OUT / "digests.json"
        registry = (json.loads(registry_path.read_text())
                    if registry_path.exists() else {})
        expected = registry.setdefault(key, next(iter(self.digests.values())))
        for label, digest in self.digests.items():
            if digest != expected:
                self.failures.append(f"{label}: CSV digest {digest[:12]} differs from "
                          f"{expected[:12]} of the same code and seed")
        tmp = registry_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(registry, indent=1, sort_keys=True))
        os.replace(tmp, registry_path)


def warm_up():
    """Import the package once so byte-code and file caches are filled."""
    subprocess.run([sys.executable, "-c", "import extreme_chains.cli"],
                   cwd=ROOT, env=child_env(), check=True,
                   timeout=CHILD_TIMEOUT_S, capture_output=True)


def setup_samples(probes):
    """Wall times, import times and build times of the probes that succeeded."""
    ok = [(child, probe) for child, probe in probes if probe is not None]
    return ([c.wall_s for c, _ in ok], [p["import_s"] for _, p in ok],
            [p["build_s"] for _, p in ok])


def end_to_end(bench, seconds):
    """CLI runs and set-up probes, interleaved, filling ``seconds``.

    Probe k starts once k / SETUP_REPS of the time has passed, so that set-up
    and runs sample the same stretch of the machine's speed.  A run starts
    only if a run of the median length so far still ends within ``seconds``.
    """
    probes, runs = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if len(probes) < SETUP_REPS and len(probes) * seconds <= elapsed * SETUP_REPS:
            probes.append(bench.setup_probe())
        elif len(runs) < MIN_RUNS or (
                elapsed + statistics.median(r.wall_s for r in runs) <= seconds):
            runs.append(bench.cli_run(f"run{len(runs)}", bench.workload.workers))
        else:
            break
    while len(probes) < SETUP_REPS:
        probes.append(bench.setup_probe())
    transitions = bench.workload.transitions(bench.config)
    return {
        "run_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "transitions_per_s": [transitions / r.wall_s for r in runs],
        "setup_s": setup_samples(probes)[0],
        "peak_rss_mb": [r.rss_mb for r in runs],
    }


def in_process_run(bench, label, trace):
    """``cli.run_experiment(workers=1)`` in a fresh ``tracer.py`` child."""
    out_dir, result_path = bench.work / label, bench.work / f"{label}.json"
    argv = [sys.executable, str(HERE / "tracer.py"), str(bench.config_path),
            str(out_dir), str(result_path), str(trace)]
    bench.attempted += 1
    child = spawn(argv, bench.work)
    if child.returncode != 0:
        bench.failures.append(f"{label} exited {child.returncode}: "
                                f"{child.stderr.strip()[-300:]}")
        return None
    bench.check_output(label, out_dir)
    return json.loads(result_path.read_text())


def per_layer(bench):
    _, imports, builds = setup_samples(
        [bench.setup_probe() for _ in range(SETUP_REPS)])
    metrics = {"setup.import_s": imports, "setup.build_s": builds}
    bench.cli_run("cli_workers2", workers=2)
    plain = in_process_run(bench, "inproc_plain", 0)
    traced = in_process_run(bench, "inproc_traced", 1)
    if plain is None or traced is None:
        return metrics
    metrics.update({k: [v] for k, v in layer_metrics(traced["spans"]).items()})
    out_dir = bench.work / "inproc_traced"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    metrics.update({
        "cli.csv_rows": [sum(e["rows"] for e in manifest["outputs"])],
        "cli.csv_bytes": [sum((out_dir / f).stat().st_size
                              for f in csv_files(out_dir))],
        "trace.untraced_s": [plain["wall_s"]],
        "trace.overhead_frac": [traced["wall_s"] / plain["wall_s"] - 1.0],
    })
    return metrics


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the repository holding the benchmark, or None outside git."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def tail_percentile(values):
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return round(100.0 * (n - 10) / n, 1), sorted(values)[n - 11]


def summarise(samples):
    summary = {}
    for name, values in samples.items():
        if values:
            summary[name] = {"value": statistics.median(values),
                             "unit": UNITS[name], "n": len(values),
                             "tail": tail_percentile(values)}
    return summary


def run_workload(name, seed, seconds, trace, scale):
    workload = WORKLOADS[name]
    work = OUT / f"{name}-seed{seed}-trace{trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, seed, scale, work)
    started = time.perf_counter()
    warm_up()
    samples = per_layer(bench) if trace else end_to_end(bench, seconds)
    bench.check_digests()
    summary = summarise(samples)
    wanted = [n for n, _ in PER_LAYER] if trace else list(END_TO_END)
    missing = [n for n in wanted if n not in summary]
    if missing:
        bench.failures.append(f"no value for {', '.join(missing)}")
    failed = min(len(bench.failures), bench.attempted)
    result = {
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {n: {"value": summary[n]["value"], "unit": summary[n]["unit"]}
                    for n in wanted if n in summary},
    }
    record = {
        "workload": name, "why": workload.why, "seed": seed, "trace": trace,
        "seconds": seconds, "scale": scale,
        "git_commit": git_commit(), "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": bench.versions.get("numpy"),
        "scipy": bench.versions.get("scipy"),
        "thread_env": {var: "1" for var in THREAD_VARS},
        "benchmark_argv": sys.argv, "cli_argv": bench.argvs,
        "config": bench.config, "digests": bench.digests,
        "failures": bench.failures, "fail_frac": failed / bench.attempted,
        "samples": samples, "summary": summary,
        "elapsed_s": time.perf_counter() - started, "result": result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    result_file = results / f"{name}-seed{seed}-trace{trace}.json"
    result_file.write_text(json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)
    return record


def print_record(record):
    print(f"== {record['workload']}  seed={record['seed']}  "
          f"trace={record['trace']}  commit={record['git_commit']}  "
          f"nproc={record['nproc']}")
    for name, s in record["summary"].items():
        tail = (f"  p{s['tail'][0]:g}={s['tail'][1]:.6g}" if s["tail"] else "")
        print(f"  {name:50s} {s['value']:>14.6g} {s['unit']:10s} n={s['n']}{tail}")
    print(f"  {'fail_frac':50s} {record['fail_frac']:>14.6g} ratio      "
          f"n={record['result']['attempted']}")
    for line in record["failures"]:
        print(f"  FAILED: {line}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiply path counts (smoke tests only)")
    args = parser.parse_args(argv)
    if not (SRC / "extreme_chains" / "cli.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(n, args.seed, args.seconds, args.trace, args.scale)
               for n in names]
    for record in records:
        print_record(record)
    if len(records) == 1:
        final = records[0]["result"]
    else:
        final = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{k}": v for r in records
                        for k, v in r["result"]["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
