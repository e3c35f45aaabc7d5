"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, check_run  # noqa: E402

from extreme_chains import cli  # noqa: E402

SCALE = 0.02


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc


def tiny_output(tmp_path, name, seed=5):
    workload = WORKLOADS[name]
    config = workload.make_config(seed, SCALE)
    out = tmp_path / "out"
    cli.run_experiment(config, str(out), workers=1)
    return workload, config, out


def traced_metrics(config, out):
    # the CLI memoises kernels per process; each traced run must build its own
    for value in vars(cli).values():
        if callable(getattr(value, "cache_clear", None)):
            value.cache_clear()
    t = tracer.Tracer()
    with tracer.installed(t):
        cli.run_experiment(config, str(out), workers=1)
    return t.spans, tracer.layer_metrics(t.spans)


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_metric(name, trace):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--scale", str(SCALE))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = run.END_TO_END if trace == 0 else dict(tracer.PER_LAYER)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name_, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name_
        assert name_ in proc.stdout.split("\n", 1)[1]    # human-readable table
    if trace == 1:
        evals = result["metrics"]["kernels.cdf_evals_per_draw"]["value"]
        assert (evals == 0.0) == (name == "arch_paths_csv")


def test_corrupted_output_is_counted_as_a_failure(tmp_path):
    workload, config, out = tiny_output(tmp_path, "fig1_envelopes")
    assert check_run(workload, out, config) == []
    state = run.Bench(workload, 5, SCALE, tmp_path)
    assert state.check_output("clean", out)
    path = out / "chain_ii.csv"
    lines = path.read_text().splitlines()
    source, t, lo, mean, hi = lines[3].split(",")
    lines[3] = ",".join([source, t, lo, repr(float(hi) + 1.0), hi])
    path.write_text("\n".join(lines) + "\n")
    assert not state.check_output("corrupt", out)
    assert len(state.failures) == 1 and "q025..q975" in state.failures[0]


def test_truncated_output_disagrees_with_the_manifest(tmp_path):
    workload, config, out = tiny_output(tmp_path, "fig1_envelopes")
    path = out / "chain_iii.csv"
    path.write_text("".join(path.read_text().splitlines(True)[:-1]))
    problems = check_run(workload, out, config)
    assert problems and "manifest" in problems[0]


def test_self_times_add_up_to_run_experiment(tmp_path):
    _, config, _ = tiny_output(tmp_path, "fig1_envelopes")
    spans, metrics = traced_metrics(config, tmp_path / "traced")
    own = tracer.self_times(spans)
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.run_experiment"]
    children = sum(v for k, v in own.items() if k != roots[0]["id"])
    assert children + metrics["cli.self_s"] == pytest.approx(
        metrics["cli.run_experiment_s"], rel=1e-9)
    assert metrics["cli.self_s"] < metrics["cli.run_experiment_s"]


def test_tracing_restores_the_program(tmp_path):
    from extreme_chains import kernels
    before = (cli.run_experiment, kernels.make_kernel,
              vars(kernels.BevLogisticKernel)["cdf"])
    traced_metrics(WORKLOADS["fig1_envelopes"].make_config(1, SCALE),
                   tmp_path / "out")
    assert before == (cli.run_experiment, kernels.make_kernel,
                      vars(kernels.BevLogisticKernel)["cdf"])


def test_cdf_evals_per_draw_repeats_exactly(tmp_path):
    config = WORKLOADS["fig1_envelopes"].make_config(9, SCALE)
    counts = []
    for k in range(2):
        _, metrics = traced_metrics(config, tmp_path / f"run{k}")
        counts.append({k: v for k, v in metrics.items()
                       if k.startswith(("kernels.cdf_evals_per_draw",
                                        "kernels.cdf_calls",
                                        "kernels.sample_draws"))})
    assert counts[0] == counts[1]
    assert 80 <= counts[0]["kernels.cdf_evals_per_draw.bev_logistic"] <= 130
    assert counts[0]["kernels.cdf_evals_per_draw.expar"] == 0.0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig1_envelopes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
