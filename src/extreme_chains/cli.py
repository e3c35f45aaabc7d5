"""Batch experiment runner: ``extreme-chains run --config FILE --out DIR``.

A run is described by one JSON config (kind, kernel/scheme ids with parameter
maps, grids, horizon, path count, and a mandatory master seed), writes CSV
artifacts plus a manifest, and is byte-deterministic for a given seed no
matter how many workers execute it: work is split into a fixed set of tasks,
each with a seed derived from (master seed, task index), and results are
assembled in task order.
"""

import argparse
import csv
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from functools import lru_cache, partial
from itertools import chain, islice

import numpy as np

from . import diagnostics, kernels, norming, tailchain
from .errors import ExtremeChainsError, ValidationError, build, from_spec

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

_N_CHUNKS = 8   # fixed path-partition count; independent of worker count
_BLOCK_ROWS = 1 << 15   # path rows formatted at a time into a chunk's part file


def _rng_for(seed, *key):
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(seed), spawn_key=tuple(int(k) for k in key)))


@lru_cache(maxsize=32)
def _kernel_from_json(spec_json):
    return from_spec(kernels.make_kernel, json.loads(spec_json), "kernel")


def _build_kernel(spec):
    """The kernel of ``spec``, built once per process for each spec."""
    return _kernel_from_json(json.dumps(spec, sort_keys=True))


def _build_scheme(spec):
    return from_spec(norming.make_norming, spec, "scheme")


def _build_law(spec):
    return from_spec(norming.limit_law, spec, "limit law")


# ---------------------------------------------------------------------------
# task bodies (top-level so a process pool can pickle them)
# ---------------------------------------------------------------------------

def _chunk_size(n, chunk):
    """Paths in one of the _N_CHUNKS fixed chunks of an n-path run."""
    return n // _N_CHUNKS + (1 if chunk < n % _N_CHUNKS else 0)


def _first_path(n, chunk):
    """Id of the first path in ``chunk``: the paths of the chunks before it."""
    return sum(_chunk_size(n, c) for c in range(chunk))


def _format_paths(first_path, t0, values, *int_columns):
    """CSV text of long-format path rows ``path,t,value[,int columns]`` and
    their count.

    ``values`` and each int column are arrays of shape (paths, steps); path
    ids count from ``first_path`` and t from ``t0``.  The bytes are those
    ``csv.writer`` gives for ``[pid, t, repr(float(v)), int(c), ...]``: no
    field needs quoting and every line ends in ``\r\n``.  Each path is one
    ``str.format`` call on a template built once, with arguments
    ``pid, *values, *ints...``.
    """
    values = np.asarray(values, dtype=float)
    steps = values.shape[1]
    template = "".join(
        f"{{0}},{t0 + t},{{{1 + t}!r}}"
        + "".join(f",{{{1 + k * steps + t}}}" for k in range(1, len(int_columns) + 1))
        + "\r\n" for t in range(steps)).format
    columns = [values.tolist()]
    columns += [np.asarray(c, dtype=np.int64).tolist() for c in int_columns]
    text = "".join([template(pid, *chain.from_iterable(cells))
                    for pid, cells in enumerate(zip(*columns), first_path)])
    return text, values.size


def _write_part(part, first_path, t0, values, *int_columns):
    """Write the rows ``_format_paths`` gives for these paths to the file
    ``part``, a block of paths at a time; returns ``(part, rows)``.

    Only one block's text is held at once, so memory does not grow with the
    chunk.
    """
    n, steps = values.shape
    step = max(1, _BLOCK_ROWS // steps)
    with open(part, "w", newline="") as fh:
        for i in range(0, n, step):
            fh.write(_format_paths(first_path + i, t0, values[i:i + step],
                                   *(c[i:i + step] for c in int_columns))[0])
    return part, values.size


def _task_simulate_chunk(args):
    config, chunk, part = args
    kern = _build_kernel(config["kernel"])
    rng = _rng_for(config["seed"], 1, chunk)
    init = (diagnostics.FixedX0(config["init"]["x0"]) if "x0" in config["init"]
            else diagnostics.Exceedance(config["init"]["u"]))
    n = config["n_paths"]
    X = diagnostics.conditional_forward_sim(
        kern, kern.stationary_law, init, config["horizon"],
        _chunk_size(n, chunk), rng)
    return _write_part(part, _first_path(n, chunk), 0, X)


def _task_converge_row(args):
    config, j = args
    kern = _build_kernel(config["kernel"])
    scheme = _build_scheme(config["scheme"])
    law = _build_law(config["limit_law"])
    v = float(config["v_grid"][j])
    return diagnostics.convergence_table(
        kern, scheme, law, config["t"], [v], config["n_paths"],
        seed=_derived_seed(config["seed"], 2, j))[0]


def _derived_seed(seed, *key):
    return int(_rng_for(seed, *key).integers(0, 2 ** 63 - 1))


# chain -> its kernel and limit-law specs at figure-1's gamma, phi and rho;
# each chain is normed by the canonical (alpha, beta) its kernel carries, and
# no limiting kernel is available for chain iii
_FIG1_CHAINS = (
    ("i", lambda gamma, phi, rho: ({"id": "bev_logistic", "gamma": gamma},
                                   {"id": "bev_logistic", "gamma": gamma})),
    ("ii", lambda gamma, phi, rho: ({"id": "inverted_bev_logistic", "gamma": gamma},
                                    {"id": "inverted_bev_logistic", "gamma": gamma})),
    ("iii", lambda gamma, phi, rho: ({"id": "expar", "phi": phi}, None)),
    ("iv", lambda gamma, phi, rho: (
        {"id": "gaussian_copula", "rho": rho, "margin": "exponential"},
        {"id": "gaussian_exponential", "rho": rho})),
)


def _task_figure1_chain(args):
    config, idx = args
    tag, specs = _FIG1_CHAINS[idx]
    kern_spec, law_spec = specs(config["gamma"], config["phi"], config["rho"])
    kern = _build_kernel(kern_spec)
    if kern.ht_alpha_beta is None:
        raise ValidationError(f"figure1: {kern.name} has no canonical norming")
    alpha, beta = kern.ht_alpha_beta
    scheme = norming.make_norming("ht_canonical", alpha=alpha, beta=beta)
    law = None if law_spec is None else _build_law(law_spec)
    x0, T, n = config["x0"], config["horizon"], config["n_paths"]
    # each envelope summarises one step's n states at a time; no path
    # matrix is formed
    states = diagnostics.forward_states(
        kern, kern.stationary_law, diagnostics.FixedX0(x0), T, n,
        _rng_for(config["seed"], 3, idx, 0))
    env_actual = diagnostics.quantile_envelope(islice(states, 1, None),
                                               source="actual", t_start=1)
    env_tc = None
    if law is not None:
        steps = tailchain.tail_chain_steps(scheme, law, T, n,
                                           _rng_for(config["seed"], 3, idx, 1))
        env_tc = diagnostics.quantile_envelope(
            (scheme.a(t, x0) + scheme.b(t, x0) * m for t, m in enumerate(steps, 1)),
            source="tailchain", t_start=1)
    return tag, env_actual, env_tc


def _hidden_ht_mixture(alpha1, beta1, g1: dict, alpha2, beta2, g2: dict, lam=0.5):
    return partial(tailchain.hidden_ht_mixture, lam, (alpha1, beta1, _build_law(g1)),
                   (alpha2, beta2, _build_law(g2)))


# hidden example -> builder of its sampler (T, n, rng) from the example's
# parameters; the defaults are the parameters a config may leave out
_HIDDEN_EXAMPLES = {
    "asym_logistic": lambda phi1=0.5, phi2=0.5, nu=0.152:
        partial(tailchain.hidden_asym_logistic, phi1, phi2, nu),
    "rootzen_smith": lambda: tailchain.hidden_rootzen_smith,
    "arch": lambda theta0=1.0, theta1=0.7: partial(tailchain.hidden_arch, theta0, theta1),
    "ht_mixture": _hidden_ht_mixture,
}


def _task_hidden_chunk(args):
    config, chunk, part = args
    rng = _rng_for(config["seed"], 4, chunk)
    n = config["n_paths"]
    sample = build(_HIDDEN_EXAMPLES, "hidden example", config["example"],
                   config["params"])
    h = sample(config["horizon"], _chunk_size(n, chunk), rng)
    return _write_part(part, _first_path(n, chunk), 1, h.M, h.regime,
                       h.is_changepoint)


def _task_chi_row(args):
    config, j = args
    kern = _build_kernel(config["kernel"])
    u = float(config["u_grid"][j])
    rows = diagnostics.chi_estimate(
        kern, kern.stationary_law, config["t"], [u],
        config["n_paths"], seed=_derived_seed(config["seed"], 5, j))
    return rows[0]


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _run_tasks(fn, arglist, workers):
    """Yield ``fn(a)`` for each ``a`` of ``arglist``, in order, as each is done."""
    if workers <= 1 or len(arglist) <= 1:
        yield from map(fn, arglist)
        return
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(arglist))) as pool:
        yield from pool.map(fn, arglist)


def _write_paths_csv(task, config, workers, path, header):
    """Run ``task`` on every non-empty path chunk and write ``header`` and the
    rows of each chunk to ``path``, in chunk order; returns ``[(path, rows)]``.

    Chunk c writes its rows to the part file ``path.c.part``; the parent
    appends each part to ``path`` as its chunk completes and deletes it; a
    failed run's files go with ``run_experiment``'s staging directory.  A
    chunk's index keys its seed, so a path keeps its chunk, and its bytes,
    whatever the path count of the other chunks.
    """
    parts = [f"{path}.{c}.part" for c in range(min(config["n_paths"], _N_CHUNKS))]
    rows = 0
    results = _run_tasks(task, [(config, c, part) for c, part in enumerate(parts)],
                         workers)
    try:
        with open(path, "wb") as out:
            out.write((",".join(header) + "\r\n").encode())
            for part, m in results:
                with open(part, "rb") as fh:
                    shutil.copyfileobj(fh, out)
                os.remove(part)
                rows += m
    finally:
        results.close()   # a pool finishes its running chunks before this returns
    return [(path, rows)]


def _write_table(path, header, rows):
    """Write ``header`` and ``rows`` with ``csv.writer``; returns the row count."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return len(rows)


def _run_simulate(config, out_dir, workers):
    start = config["init"]
    if set(start) not in ({"x0"}, {"u"}):
        raise ValidationError(
            "init must be a mapping with exactly one key, 'x0' (fixed start) or "
            f"'u' (exceedance threshold); got {start!r}")
    _check_values(start)
    return _write_paths_csv(_task_simulate_chunk, config, workers,
                            os.path.join(out_dir, "paths.csv"),
                            ("path", "t", "value"))


def _run_converge(config, out_dir, workers):
    rows = list(_run_tasks(_task_converge_row,
                           [(config, j) for j in range(len(config["v_grid"]))],
                           workers))
    path = os.path.join(out_dir, "convergence.csv")
    header = ["kernel", "scheme", "t", "v", "n", "ks", "atom_lo", "atom_hi", "seed"]
    ids = (config["kernel"]["id"], config["scheme"]["id"], config["t"])
    _write_table(path, header, [[*ids, repr(r.v), r.n, repr(r.ks), repr(r.mass_lo),
                                 repr(r.mass_hi), r.seed] for r in rows])
    # jointly report the norming remainder decay on the same threshold grid
    scheme = _build_scheme(config["scheme"])
    r_rows = norming.remainder_table(scheme, [config["t"]], config["v_grid"])
    r_path = os.path.join(out_dir, "remainders.csv")
    n_r = _write_table(r_path, ["t", "v", "x", "r_a", "r_b"],
                       [[t, repr(v), repr(x), repr(ra), repr(rb)]
                        for t, v, x, ra, rb in r_rows])
    return [(path, len(rows)), (r_path, n_r)]


def _run_figure1(config, out_dir, workers):
    results = _run_tasks(_task_figure1_chain,
                         [(config, i) for i in range(4)], workers)
    outputs = []
    for tag, env_actual, env_tc in results:
        path = os.path.join(out_dir, f"chain_{tag}.csv")
        rows = [[env.source, int(t), repr(float(lo)), repr(float(mean)), repr(float(hi))]
                for env in (env_actual, env_tc) if env is not None
                for t, lo, mean, hi in zip(env.t, env.q025, env.mean, env.q975)]
        header = ["source", "t", "q025", "mean", "q975"]
        outputs.append((path, _write_table(path, header, rows)))
    return outputs


def _run_hidden(config, out_dir, workers):
    return _write_paths_csv(_task_hidden_chunk, config, workers,
                            os.path.join(out_dir, "hidden_paths.csv"),
                            ("path", "t", "value", "regime", "is_changepoint"))


def _run_negdep(config, out_dir, workers):
    kern = _build_kernel({"id": "gaussian_copula", "rho": config["rho"],
                          "margin": "laplace"})
    states = diagnostics.forward_states(
        kern, kern.stationary_law, diagnostics.FixedX0(config["x0"]),
        config["horizon"], config["n_paths"], _rng_for(config["seed"], 6, 0))
    path = os.path.join(out_dir, "negdep_signs.csv")
    rows = [[t, repr(float(np.mean(np.sign(x) == (-1.0) ** t)))]
            for t, x in enumerate(states) if t > 0]
    return [(path, _write_table(path, ["t", "sign_match_freq"], rows))]


def _run_chi(config, out_dir, workers):
    rows = _run_tasks(_task_chi_row,
                      [(config, j) for j in range(len(config["u_grid"]))],
                      workers)
    path = os.path.join(out_dir, "chi.csv")
    return [(path, _write_table(
        path, ["u", "estimate", "n_exceed", "n", "flagged"],
        [[repr(r.u), repr(r.estimate), r.n_exceed, r.n, int(r.flagged)]
         for r in rows]))]


# kind -> (runner, required keys, optional keys with their defaults); every
# kind also requires "kind" and "seed", and any other top-level key is a
# config error
_KINDS = {
    "simulate": (_run_simulate, ("kernel", "init", "horizon", "n_paths"), {}),
    "converge": (_run_converge, ("kernel", "scheme", "limit_law", "v_grid", "n_paths"),
                 {"t": 1}),
    "figure1": (_run_figure1, ("n_paths",),
                {"gamma": 0.152, "phi": 0.8, "rho": 0.8, "x0": 10.0, "horizon": 15}),
    "hidden": (_run_hidden, ("example", "horizon", "n_paths"), {"params": {}}),
    "negdep": (_run_negdep, (),
               {"rho": -0.8, "x0": 20.0, "horizon": 3, "n_paths": 100_000}),
    "chi": (_run_chi, ("kernel", "u_grid", "n_paths"), {"t": 1}),
}


def _number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _grid(v):
    return isinstance(v, list) and len(v) > 0 and all(map(_number, v))


def _count(least):
    return (lambda v: _number(v) and isinstance(v, int) and v >= least,
            f"an integer >= {least}")


_REAL = (_number, "a number")
_MAPPING = (lambda v: isinstance(v, dict), "a mapping")

# config key -> (check, what its value must be), for the top-level keys of
# every kind and the keys of "init"; only a simulate run may have horizon 0
_VALUES = {
    "seed": _count(0),
    **dict.fromkeys(("n_paths", "t", "horizon"), _count(1)),
    **dict.fromkeys(("x0", "u", "gamma", "phi", "rho"), _REAL),
    **dict.fromkeys(("kernel", "scheme", "limit_law", "init", "params"), _MAPPING),
    "v_grid": (_grid, "a non-empty list of numbers"),
    "u_grid": (lambda v: _grid(v) and all(0.0 < u < 1.0 for u in v),
               "a non-empty list of numbers inside (0, 1)"),
    "example": (lambda v: isinstance(v, str) and v in _HIDDEN_EXAMPLES,
                f"one of {', '.join(sorted(_HIDDEN_EXAMPLES))}"),
}


def _check_values(config):
    values = dict(_VALUES, horizon=_count(0)) if config.get("kind") == "simulate" else _VALUES
    for key, value in config.items():
        check, want = values.get(key, (None, None))
        if check is not None and not check(value):
            raise ValidationError(f"config key '{key}' must be {want}; got {value!r}")


def _check_keys(config):
    """The runner of the config's kind and the config with the kind's
    defaults filled in, once its top-level keys and the types of their values
    are checked."""
    kind = config.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:
        raise ValidationError(
            f"config key 'kind' must be one of {', '.join(_KINDS)}; got {kind!r}")
    runner, required, defaults = _KINDS[kind]
    required = ("kind", "seed") + required
    allowed = ", ".join(sorted(required + tuple(defaults)))
    for key in required:
        if key not in config:
            raise ValidationError(
                f"{kind} config is missing required key '{key}' (allowed: {allowed})")
    for key in config:
        if key not in required and key not in defaults:
            raise ValidationError(
                f"{kind} config has unknown key '{key}' (allowed: {allowed})")
    _check_values(config)
    return runner, dict(defaults, **config)


def emit_manifest(config, outputs, out_dir, wall_time):
    """Write manifest.json listing every artifact with its row count."""
    import scipy
    from . import __version__
    manifest = {
        "config": config,
        "outputs": [{"file": os.path.basename(p), "rows": r} for p, r in outputs],
        "versions": {
            "extreme_chains": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall_time,
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def run_experiment(config, out_dir, workers=1):
    """Validate and execute one experiment config; returns output list.

    The runner writes into a staging directory that ``tempfile.mkdtemp``
    makes inside ``out_dir``.  Once it returns, each output and then the
    manifest is moved into ``out_dir`` by ``os.replace``, a rename on the same
    filesystem.  The staging directory is removed however the run ends, so a
    failed run leaves ``out_dir`` as it found it.
    """
    if not isinstance(config, dict):
        raise ValidationError("config must be a JSON object")
    runner, filled = _check_keys(config)
    os.makedirs(out_dir, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=out_dir)
    try:
        start = time.perf_counter()
        outputs = runner(filled, staging, workers)
        manifest = emit_manifest(config, outputs, staging, time.perf_counter() - start)
        for path in [p for p, _ in outputs] + [manifest]:
            os.replace(path, os.path.join(out_dir, os.path.basename(path)))
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return [(os.path.join(out_dir, os.path.basename(p)), rows) for p, rows in outputs]


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="extreme-chains",
        description="Reproducible experiments on extreme events of Markov chains")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("--config", required=True, help="JSON config file")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                      help="parallel workers (output is identical regardless)")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc), "category": "config"}),
              file=sys.stderr)
        return EXIT_CONFIG
    # the imports live until exit: no collection here or in a worker walks them
    gc.freeze()
    try:
        run_experiment(config, args.out, workers=args.workers)
    except ValidationError as exc:
        print(json.dumps({"error": str(exc), "category": "config"}),
              file=sys.stderr)
        return EXIT_CONFIG
    except ExtremeChainsError as exc:
        print(json.dumps({"error": str(exc), "category": "numeric"}),
              file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(json.dumps({"error": str(exc), "category": "io"}),
              file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
