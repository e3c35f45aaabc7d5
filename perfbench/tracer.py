"""Per-layer spans recorded from outside the program.

``installed(tracer)`` wraps the public entry points of each ``extreme_chains``
module (and the ``sample``/``cdf`` methods of every kernel class and of
``LimitLaw``) in span recorders, and restores the originals on exit.  Spans
stay in memory until the run ends.  ``layer_metrics`` turns them into the
benchmark's per-layer metrics.

Run as a script it is the in-process run child::

    PYTHONPATH=src python3 perfbench/tracer.py CONFIG OUT RESULT 0|1

It calls ``cli.run_experiment(config, OUT, workers=1)`` once, with spans when
the last argument is 1, and writes the call's wall time and every span to the
JSON file RESULT.  A fresh process per call keeps the traced and the untraced
call equally cold, as a CLI run is.
"""

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from fnmatch import fnmatch

import numpy as np

from workloads import KERNEL_IDS

# module -> name patterns of the module functions that get a span
MODULE_FUNCTIONS = {
    "kernels": ("make_kernel",),
    "margins": ("transform",),
    "numerics": ("arch_stationary_fit", "solve_Fv_fixed_point"),
    "norming": ("limit_law", "update_functions", "remainder_table"),
    "tailchain": ("simulate_*", "reconstruct_paths"),
    "diagnostics": ("conditional_forward_sim", "quantile_envelope",
                    "ks_against_limit"),
    "cli": ("run_experiment", "emit_manifest"),
}


def _per_kernel(name, unit):
    return [(name, unit)] + [(f"{name}.{k}", unit) for k in KERNEL_IDS]


# (name, unit) of every per-layer metric; all are better when lower.
PER_LAYER = (
    _per_kernel("kernels.sample_s", "s")
    + _per_kernel("kernels.sample_draws", "count")
    + _per_kernel("kernels.cdf_s", "s")
    + _per_kernel("kernels.cdf_calls", "count")
    + _per_kernel("kernels.cdf_evals_per_draw", "evals/draw")
    + _per_kernel("kernels.make_kernel_s", "s")
    + [("numerics.arch_stationary_fit_s", "s"),
       ("numerics.solve_Fv_fixed_point_s", "s"),
       ("margins.transform_s", "s"),
       ("margins.transform_calls", "count"),
       ("margins.transform_elems", "count"),
       ("norming.limit_law_sample_s", "s"),
       ("norming.limit_law_draws", "count"),
       ("tailchain.simulate_s", "s"),
       ("tailchain.reconstruct_paths_s", "s"),
       ("diagnostics.forward_sim_self_s", "s"),
       ("diagnostics.quantile_envelope_s", "s"),
       ("cli.run_experiment_s", "s"),
       ("cli.self_s", "s"),
       ("cli.emit_manifest_s", "s"),
       ("cli.csv_rows", "count"),
       ("cli.csv_bytes", "B"),
       ("setup.import_s", "s"),
       ("setup.build_s", "s"),
       ("trace.untraced_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


class Tracer:
    """Records one span per call of a wrapped function."""

    def __init__(self, run_id="traced"):
        self.run_id = run_id
        self.spans = []
        self._open = []          # ids of the spans still running, innermost last

    def wrap(self, name, fn, attrs=None):
        """``fn`` with a span around each call; ``attrs(args, result)`` adds fields."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._open[-1] if self._open else None}
            self.spans.append(span)
            self._open.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result
        return traced


@contextmanager
def installed(tracer):
    """Wrap the program's entry points in ``tracer`` for the ``with`` body."""
    from extreme_chains import (cli, diagnostics, kernels, margins, norming,
                                numerics, tailchain)
    modules = {"cli": cli, "diagnostics": diagnostics, "kernels": kernels,
               "margins": margins, "norming": norming, "numerics": numerics,
               "tailchain": tailchain}
    kernel_ids = {}    # kernel class -> catalogue id, learnt from make_kernel
    undo = []

    def kernel_of(obj):
        return kernel_ids.get(type(obj), type(obj).__name__)

    def make_kernel_attrs(args, kernel):
        kernel_ids[type(kernel)] = args[0]
        return {"kernel": args[0]}

    def cdf_attrs(args, _):
        shape = np.broadcast_shapes(np.shape(args[1]), np.shape(args[2]))
        return {"kernel": kernel_of(args[0]), "n": int(np.prod(shape))}

    span_fields = {
        "kernels.make_kernel": make_kernel_attrs,
        "margins.transform": lambda args, _: {"n": int(np.size(args[0]))},
        "kernels.sample": lambda args, _: {"kernel": kernel_of(args[0]),
                                           "n": int(np.size(args[1]))},
        "kernels.cdf": cdf_attrs,
        "norming.LimitLaw.sample": lambda args, _: {"n": int(np.prod(args[1]))},
    }

    def patch(owner, attr, name, original):
        wrapped = tracer.wrap(name, original, span_fields.get(name))
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)
        return wrapped

    for mod_name, patterns in MODULE_FUNCTIONS.items():
        mod = modules[mod_name]
        for attr, original in sorted(vars(mod).items()):
            if not (callable(original) and any(fnmatch(attr, p) for p in patterns)):
                continue
            wrapped = patch(mod, attr, f"{mod_name}.{attr}", original)
            # rebind every other module-level name in the package that holds it
            for other in modules.values():
                for other_attr, value in list(vars(other).items()):
                    if value is original:
                        undo.append((other, other_attr, value))
                        setattr(other, other_attr, wrapped)
    for cls in list(vars(kernels).values()):
        if (isinstance(cls, type) and cls.__module__ == kernels.__name__
                and hasattr(cls, "sample") and hasattr(cls, "cdf")):
            for method in ("sample", "cdf"):
                if method in vars(cls):
                    patch(cls, method, f"kernels.{method}", vars(cls)[method])
    patch(norming.LimitLaw, "sample", "norming.LimitLaw.sample",
          vars(norming.LimitLaw)["sample"])
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# spans -> metrics
# ---------------------------------------------------------------------------

def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -np.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans):
    """Span id -> its duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children[s["id"]])
            for s in spans}


def layer_metrics(spans):
    """Per-layer metrics (without the setup, CSV and overhead ones)."""
    by_id = {s["id"]: s for s in spans}

    def outermost(s):
        # a span nested in one of the same name adds no time of its own
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return False
            p = by_id[p]["parent"]
        return True

    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)

    def total(name, kernel=None, prefix=False):
        picked = [s for n, ss in named.items()
                  if (n.startswith(name) if prefix else n == name) for s in ss
                  if kernel is None or s.get("kernel") == kernel]
        return (sum(s["end"] - s["start"] for s in picked if outermost(s)),
                len(picked), sum(s.get("n", 0) for s in picked))

    m = {}
    for kernel in (None,) + KERNEL_IDS:
        sfx = "" if kernel is None else f".{kernel}"
        sample_s, _, draws = total("kernels.sample", kernel)
        cdf_s, cdf_calls, evals = total("kernels.cdf", kernel)
        m["kernels.sample_s" + sfx] = sample_s
        m["kernels.sample_draws" + sfx] = draws
        m["kernels.cdf_s" + sfx] = cdf_s
        m["kernels.cdf_calls" + sfx] = cdf_calls
        m["kernels.cdf_evals_per_draw" + sfx] = evals / draws if draws else 0.0
        m["kernels.make_kernel_s" + sfx] = total("kernels.make_kernel", kernel)[0]
    m["numerics.arch_stationary_fit_s"] = total("numerics.arch_stationary_fit")[0]
    m["numerics.solve_Fv_fixed_point_s"] = total("numerics.solve_Fv_fixed_point")[0]
    m["margins.transform_s"], m["margins.transform_calls"], \
        m["margins.transform_elems"] = total("margins.transform")
    m["norming.limit_law_sample_s"], _, m["norming.limit_law_draws"] = \
        total("norming.LimitLaw.sample")
    m["tailchain.simulate_s"] = total("tailchain.simulate_", prefix=True)[0]
    m["tailchain.reconstruct_paths_s"] = total("tailchain.reconstruct_paths")[0]
    own = self_times(spans)
    m["diagnostics.forward_sim_self_s"] = sum(
        own[s["id"]] for s in named["diagnostics.conditional_forward_sim"])
    m["diagnostics.quantile_envelope_s"] = total("diagnostics.quantile_envelope")[0]
    m["cli.run_experiment_s"] = total("cli.run_experiment")[0]
    m["cli.self_s"] = sum(own[s["id"]] for s in named["cli.run_experiment"])
    m["cli.emit_manifest_s"] = total("cli.emit_manifest")[0]
    return m


# ---------------------------------------------------------------------------
# in-process run child
# ---------------------------------------------------------------------------

def main(argv):
    config_path, out_dir, result_path, trace = argv
    with open(config_path) as fh:
        config = json.load(fh)
    from extreme_chains import cli
    tracer = Tracer()
    with installed(tracer) if trace == "1" else nullcontext():
        start = time.perf_counter()
        cli.run_experiment(config, out_dir, workers=1)
        wall_s = time.perf_counter() - start
    with open(result_path, "w") as fh:
        json.dump({"wall_s": wall_s, "spans": tracer.spans}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
