import csv
import io
import json
import math
import os
import subprocess
import sys
from functools import partial

import numpy as np
import pytest

from extreme_chains import cli, kernels, numerics
from extreme_chains.errors import ConvergenceError


def write_config(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


CHI_CONFIG = {
    "kind": "chi",
    "seed": 7,
    "kernel": {"id": "gaussian_copula", "rho": 0.8, "margin": "exponential"},
    "u_grid": [0.9, 0.95],
    "n_paths": 5_000,
    "t": 1,
}

FIG1_CONFIG = {"kind": "figure1", "seed": 21, "x0": 10.0, "horizon": 4,
               "n_paths": 800}


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunExperiment:

    def test_chi_outputs_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, "chi.json", CHI_CONFIG)
        rc = cli.main(["run", "--config", cfg, "--out", str(out), "--workers", "1"])
        assert rc == 0
        assert (out / "chi.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        # manifest references every written file with matching row counts
        for entry in manifest["outputs"]:
            lines = (out / entry["file"]).read_text().splitlines()
            assert len(lines) - 1 == entry["rows"]
        # config echo round-trips
        assert manifest["config"] == CHI_CONFIG

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "chi.json", CHI_CONFIG)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "a"),
                         "--workers", "1"]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "b"),
                         "--workers", "1"]) == 0
        assert read(tmp_path / "a" / "chi.csv") == read(tmp_path / "b" / "chi.csv")

    def test_worker_count_invariance(self, tmp_path):
        cfg = write_config(tmp_path, "chi.json", CHI_CONFIG)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "w1"),
                         "--workers", "1"]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "w3"),
                         "--workers", "3"]) == 0
        assert read(tmp_path / "w1" / "chi.csv") == read(tmp_path / "w3" / "chi.csv")

    def test_figure1_files(self, tmp_path):
        cfg = write_config(tmp_path, "f.json", FIG1_CONFIG)
        out = tmp_path / "fig"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--workers", "2"]) == 0
        for tag in ("i", "ii", "iii", "iv"):
            text = (out / f"chain_{tag}.csv").read_text().splitlines()
            sources = {line.split(",")[0] for line in text[1:]}
            if tag == "iii":
                assert sources == {"actual"}     # no limiting kernel for (iii)
            else:
                assert sources == {"actual", "tailchain"}

    def test_simulate_and_hidden_kinds(self, tmp_path):
        sim = {"kind": "simulate", "seed": 3,
               "kernel": {"id": "rootzen_smith"},
               "init": {"u": 9.0}, "horizon": 3, "n_paths": 40}
        cfg = write_config(tmp_path, "sim.json", sim)
        out = tmp_path / "sim"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "paths.csv").read_text().splitlines()
        assert lines[0] == "path,t,value"
        assert len(lines) - 1 == 40 * 4

        hid = {"kind": "hidden", "seed": 4, "example": "rootzen_smith",
               "horizon": 5, "n_paths": 32}
        cfg = write_config(tmp_path, "hid.json", hid)
        out = tmp_path / "hid"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "hidden_paths.csv").read_text().splitlines()
        assert lines[0] == "path,t,value,regime,is_changepoint"
        assert len(lines) - 1 == 32 * 5

    def test_negdep_kind(self, tmp_path):
        cfg = write_config(tmp_path, "n.json", {
            "kind": "negdep", "seed": 5, "rho": -0.8, "x0": 20.0,
            "horizon": 2, "n_paths": 4_000})
        out = tmp_path / "neg"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "negdep_signs.csv").read_text().splitlines()
        assert lines[0] == "t,sign_match_freq"
        assert float(lines[1].split(",")[1]) > 0.95

    def test_converge_kind(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "kind": "converge", "seed": 6,
            "kernel": {"id": "gaussian_copula", "rho": 0.8,
                       "margin": "exponential"},
            "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
            "limit_law": {"id": "gaussian_exponential", "rho": 0.8},
            "v_grid": [6.0, 12.0], "n_paths": 4_000, "t": 1})
        out = tmp_path / "conv"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "kernel,scheme,t,v,n,ks,atom_lo,atom_hi,seed"
        assert len(lines) == 3
        rlines = (out / "remainders.csv").read_text().splitlines()
        assert rlines[0] == "t,v,x,r_a,r_b"
        # x = -5 is out of range at these thresholds, so 2 of 6 rows drop
        assert len(rlines) == 1 + 4


def csv_writer_rows(first_path, t0, chunks):
    """The reference: ``csv.writer`` on ``[pid, t, repr(float(v)), int(c), ...]``
    for chunks ``(values, *int_columns)`` whose path ids continue from
    ``first_path``."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    pid = first_path
    for values, *ints in chunks:
        for i in range(values.shape[0]):
            for t in range(values.shape[1]):
                writer.writerow([pid, t + t0, repr(float(values[i, t]))]
                                + [int(c[i, t]) for c in ints])
            pid += 1
    return buf.getvalue()


class TestPathsCsv:

    def test_bytes_match_csv_writer(self):
        values = np.array([[-1.5, 1e-300, 1e300, 3.0],
                           [0.0, -2.0, 7.25e-12, 12345678.0]])
        regime = np.array([[0, 1, 2, -1], [3, 0, 1, 2]])
        change = np.array([[True, False, False, True], [False] * 4])
        for first_path in (0, 1250):
            for t0, ints in ((0, ()), (1, (regime, change)), (1, ()), (0, (regime,))):
                text, rows = cli._format_paths(first_path, t0, values, *ints)
                assert text == csv_writer_rows(first_path, t0, [(values, *ints)])
                assert rows == values.size

    def test_bytes_match_csv_writer_on_unequal_chunks(self):
        # chunks of 3 and 1 paths, the second starting where the first ends,
        # on values whose repr is signed zero, subnormal or in exponent form
        values = [np.array([[-0.0, 5e-324, 1e-5], [0.1, 1e16, -2.5e20],
                            [1e-5, -0.0, 0.1]]),
                  np.array([[-2.5e20, 1e16, 5e-324]])]
        regime = [np.array([[0, -1, 2], [1, 1, 0], [3, 0, -2]]), np.array([[7, 0, 1]])]
        change = [v > 0.0 for v in values]
        for t0, n_int in ((0, 0), (1, 0), (0, 2), (1, 2)):
            chunks = [(v, r, c)[:1 + n_int] for v, r, c in zip(values, regime, change)]
            first, second = (cli._format_paths(pid, t0, *chunk)
                             for pid, chunk in ((7, chunks[0]), (10, chunks[1])))
            text = first[0] + second[0]
            assert text == csv_writer_rows(7, t0, chunks)
            assert first[1] + second[1] == 12
            assert ",-0.0" in text and ",5e-324" in text


@pytest.mark.parametrize("n", [1, 5, 13])
@pytest.mark.parametrize("config, name, steps", [
    ({"kind": "simulate", "seed": 9, "kernel": {"id": "bev_logistic", "gamma": 0.2},
      "init": {"u": 5.0}, "horizon": 2}, "paths.csv", 3),
    ({"kind": "hidden", "seed": 9, "example": "rootzen_smith", "horizon": 2},
     "hidden_paths.csv", 2),
], ids=["simulate", "hidden"])
def test_small_path_counts(tmp_path, config, name, steps, n):
    # fewer paths than chunks: only the non-empty chunks run; a simulate path
    # has steps t = 0..T, a hidden one t = 1..T
    cfg = write_config(tmp_path, "p.json", dict(config, n_paths=n))
    for w in ("1", "2"):
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / w),
                         "--workers", w]) == 0
    text = read(tmp_path / "1" / name)
    assert text == read(tmp_path / "2" / name)
    rows = text.decode().splitlines()[1:]
    assert len(rows) == n * steps
    assert [int(r.split(",")[0]) for r in rows] == [
        pid for pid in range(n) for _ in range(steps)]


class TestErrors:

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {"kind": "nope", "seed": 1})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"

    def test_missing_seed_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {"kind": "chi"})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        assert cli.main(["run", "--config", str(p),
                         "--out", str(tmp_path / "o")]) == 2

    def test_bad_kernel_parameter_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, "bad.json", {
            "kind": "chi", "seed": 1,
            "kernel": {"id": "gaussian_copula", "rho": 0.0},
            "u_grid": [0.9], "n_paths": 100})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_numeric_failure_exits_3(self, tmp_path):
        # threshold beyond the quantile range -> numeric category
        cfg = write_config(tmp_path, "bad.json", {
            "kind": "simulate", "seed": 1,
            "kernel": {"id": "gaussian_copula", "rho": 0.8,
                       "margin": "exponential"},
            "init": {"u": 1e310}, "horizon": 1, "n_paths": 10})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("u", [2300.0, 1e4])
    def test_arch_state_beyond_the_volatility_scale_runs(self, tmp_path, u):
        # every X_0 > 2300 overflows |Y| at theta1 = 0.7, but not log|Y|:
        # the run draws finite rows, and every X_0 exceeds u
        cfg = write_config(tmp_path, "deep.json", {
            "kind": "simulate", "seed": 1,
            "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
            "init": {"u": u}, "horizon": 1, "n_paths": 100})
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--workers", "1"]) == 0
        with open(out / "paths.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        values = np.array([float(v) for _, _, v in rows])
        x0 = [float(v) for _, t, v in rows if t == "0"]
        assert len(rows) == 200 and np.all(np.isfinite(values))
        assert len(x0) == 100 and min(x0) > u

    def test_deep_threshold_runs(self, tmp_path):
        # P(X > 700) = e^-700 is below 1e-300; the start is drawn on the
        # Laplace scale, so no probability is formed and every X_0 exceeds u
        cfg = write_config(tmp_path, "deep.json", {
            "kind": "simulate", "seed": 1,
            "kernel": {"id": "gaussian_copula", "rho": 0.8,
                       "margin": "exponential"},
            "init": {"u": 700}, "horizon": 2, "n_paths": 40})
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--workers", "1"]) == 0
        with open(out / "paths.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        x0 = [float(v) for _, t, v in rows if t == "0"]
        assert len(x0) == 40 and min(x0) > 700.0

    @pytest.mark.parametrize("change", [
        {"kernel": {"id": "bev_logistic", "gama": 0.2}},     # misspelt key
        {"init": {}},                                        # no x0 or u
        {"seed": True},                                      # bool, not int
        # constructor knobs that are not config parameters
        {"kernel": {"id": "expar", "phi": 0.8, "fv": 1}},
        {"kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7,
                    "law": 3}},
        {"kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7,
                    "fit_draws": 0}},
        # misspelt top-level keys; a change naming its kind is a whole config
        {"kind": "figure1", "seed": 1, "n_paths": 200, "horizon": 3, "gama": 0.3},
        {"kind": "negdep", "seed": 1, "n_paths": 200, "rhoo": -0.5},
        {"kind": "chi", "seed": 1, "u_grid": [0.9], "n_paths": 100, "tt": 3,
         "kernel": {"id": "gaussian_copula", "rho": 0.8, "margin": "exponential"}},
        {"init": {"x0": 5.0, "u": 5.0}},                     # both x0 and u
        # counts below their least value, on every kind that reads them
        {"kind": "figure1", "seed": 1, "n_paths": 0},
        {"kind": "negdep", "seed": 1, "n_paths": 0},
        {"kind": "chi", "seed": 1, "u_grid": [0.9], "n_paths": 0,
         "kernel": {"id": "gaussian_copula", "rho": 0.8, "margin": "exponential"}},
        {"kind": "converge", "seed": 1, "v_grid": [6.0], "n_paths": 0,
         "kernel": {"id": "gaussian_copula", "rho": 0.8, "margin": "exponential"},
         "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
         "limit_law": {"id": "gaussian_exponential", "rho": 0.8}},
        {"horizon": -1},
        {"kind": "chi", "seed": 1, "u_grid": [0.9], "n_paths": 100, "t": 0,
         "kernel": {"id": "gaussian_copula", "rho": 0.8, "margin": "exponential"}},
    ])
    def test_bad_config_exits_2_with_json_line(self, tmp_path, capsys, change):
        config = {"kind": "simulate", "seed": 1,
                  "kernel": {"id": "bev_logistic", "gamma": 0.2},
                  "init": {"u": 5.0}, "horizon": 1, "n_paths": 10}
        if "kind" not in change:
            change = dict(config, **change)
        cfg = write_config(tmp_path, "bad.json", change)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"

    @pytest.mark.parametrize("config,says", [
        ({"kind": "figure1", "seed": 1, "n_paths": 200, "gama": 0.3},
         "unknown key 'gama' (allowed: gamma, horizon, kind, n_paths, phi, rho, "
         "seed, x0)"),
        ({"kind": "hidden", "seed": 1, "example": "arch", "n_paths": 16},
         "missing required key 'horizon' (allowed: example, horizon, kind, "
         "n_paths, params, seed)"),
        ({"kind": "hidden", "seed": 1, "example": "archh", "horizon": 2,
          "n_paths": 16},
         "config key 'example' must be one of arch, asym_logistic, ht_mixture, "
         "rootzen_smith; got 'archh'"),
    ])
    def test_top_level_key_error_names_key_and_allowed(self, tmp_path, capsys,
                                                       config, says):
        cfg = write_config(tmp_path, "bad.json", config)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert says in err["error"]

    @pytest.mark.parametrize("change,says", [
        ({"scheme": {"id": "ht_canonical", "alfa": 0.64, "beta": 0.5}}, "takes"),
        ({"limit_law": {"id": "gaussian_exponential", "rh0": 0.8}}, "takes"),
        ({"scheme": {"id": "ht_canonicl", "alpha": 0.64, "beta": 0.5}}, "unknown"),
        ({"limit_law": {"id": "gaussian_exponentail", "rho": 0.8}}, "unknown"),
        ({"kernel": {"id": ["gaussian_copula"], "rho": 0.8}}, "unknown kernel id"),
        ({"scheme": {"id": ["ht_canonical"], "alpha": 0.64, "beta": 0.5}}, "unknown"),
        ({"limit_law": {"id": ["gaussian_exponential"], "rho": 0.8}}, "unknown"),
        ({"kernel": {"id": "inverted_max_stable", "family": "husler_reis"}},
         "unknown exponent family id 'husler_reis'; known: constant, exp_decay, "
         "husler_reiss, logistic, power_decay"),
        ({"kernel": {"id": "inverted_max_stable", "family": "exp_decay",
                     "delta": -0.5, "gamma": 0.1, "kappa": 0.1}},
         "infeasible with left edge 0.15"),
    ], ids=["scheme_key", "limit_law_key", "scheme_id", "limit_law_id",
            "kernel_id_list", "scheme_id_list", "limit_law_id_list", "family_id",
            "family_infeasible"])
    def test_bad_converge_config_exits_2_with_json_line(self, tmp_path, capsys,
                                                         change, says):
        config = {"kind": "converge", "seed": 1,
                  "kernel": {"id": "gaussian_copula", "rho": 0.8,
                             "margin": "exponential"},
                  "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
                  "limit_law": {"id": "gaussian_exponential", "rho": 0.8},
                  "v_grid": [6.0], "n_paths": 10}
        cfg = write_config(tmp_path, "bad.json", dict(config, **change))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert says in err["error"]
        assert not err["error"].startswith('"')       # no KeyError quoting

    @pytest.mark.parametrize("key,change", [
        ("n_paths", {"n_paths": "100"}),
        ("n_paths", {"n_paths": 100.5}),
        ("horizon", {"horizon": True}),
        ("init", {"init": [5.0]}),
        ("u", {"init": {"u": "5"}}),
        ("kernel", {"kernel": "bev_logistic"}),
        ("v_grid", {"kind": "converge", "seed": 1, "v_grid": 6.0, "n_paths": 10,
                    "kernel": {"id": "gaussian_copula", "rho": 0.8},
                    "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
                    "limit_law": {"id": "gaussian_exponential", "rho": 0.8}}),
        ("u_grid", {"kind": "chi", "seed": 1, "u_grid": [1.0], "n_paths": 10,
                    "kernel": {"id": "gaussian_copula", "rho": 0.8}}),
        ("u_grid", {"kind": "chi", "seed": 1, "u_grid": [], "n_paths": 10,
                    "kernel": {"id": "gaussian_copula", "rho": 0.8}}),
        ("x0", {"kind": "figure1", "seed": 1, "n_paths": 10, "x0": "10"}),
        ("example", {"kind": "hidden", "seed": 1, "example": ["arch"],
                     "horizon": 2, "n_paths": 16}),
        # counts below their least value; only simulate takes horizon 0
        ("horizon", {"horizon": -1}),
        ("n_paths", {"n_paths": 0}),
        ("seed", {"seed": -1}),
        ("t", {"kind": "chi", "seed": 1, "u_grid": [0.9], "n_paths": 10, "t": 0,
               "kernel": {"id": "gaussian_copula", "rho": 0.8}}),
        ("horizon", {"kind": "figure1", "seed": 1, "n_paths": 10, "horizon": 0}),
        ("horizon", {"kind": "hidden", "seed": 1, "example": "rootzen_smith",
                     "horizon": 0, "n_paths": 16}),
        ("horizon", {"kind": "negdep", "seed": 1, "horizon": 0}),
    ])
    def test_wrongly_typed_value_exits_2_naming_key(self, tmp_path, capsys, key,
                                                    change):
        config = {"kind": "simulate", "seed": 1,
                  "kernel": {"id": "bev_logistic", "gamma": 0.2},
                  "init": {"u": 5.0}, "horizon": 1, "n_paths": 10}
        if "kind" not in change:
            change = dict(config, **change)
        cfg = write_config(tmp_path, "bad.json", change)
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert f"config key '{key}' must be" in err["error"]

    @pytest.mark.parametrize("change,says", [
        ({"kind": "simulate", "kernel": {"id": "bev_logistic", "gamma": "0.2"},
          "init": {"u": 5.0}, "horizon": 1},
         "kernel 'bev_logistic': parameter 'gamma' must be a number; got '0.2'"),
        ({"kind": "simulate", "init": {"u": 5.0}, "horizon": 1,
          "kernel": {"id": "gaussian_copula", "rho": 0.8, "margin": 1}},
         "parameter 'margin' must be a string"),
        ({"kind": "simulate", "init": {"u": 5.0}, "horizon": 1,
          "kernel": {"id": "ht_mixture", "lam": 0.5, "k1": "expar",
                     "k2": {"id": "expar", "phi": 0.5}}},
         "parameter 'k1' must be a mapping"),
        ({"kind": "converge", "v_grid": [6.0],
          "kernel": {"id": "gaussian_copula", "rho": 0.8},
          "scheme": {"id": "ht_canonical", "alpha": True, "beta": 0.5},
          "limit_law": {"id": "gaussian_exponential", "rho": 0.8}},
         "norming scheme 'ht_canonical': parameter 'alpha' must be a number"),
        ({"kind": "converge", "v_grid": [6.0],
          "kernel": {"id": "gaussian_copula", "rho": 0.8},
          "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
          "limit_law": {"id": "gaussian_exponential", "rho": None}},
         "limit law 'gaussian_exponential': parameter 'rho' must be a number"),
        ({"kind": "hidden", "example": "arch", "horizon": 2,
          "params": {"theta1": [0.7]}},
         "hidden example 'arch': parameter 'theta1' must be a number"),
    ], ids=["kernel", "kernel_string", "kernel_component", "scheme", "limit_law",
            "hidden_params"])
    def test_wrongly_typed_spec_parameter_exits_2_naming_it(self, tmp_path, capsys,
                                                            change, says):
        cfg = write_config(tmp_path, "bad.json",
                           dict({"seed": 1, "n_paths": 10}, **change))
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert says in err["error"]

    @pytest.mark.parametrize("example,params", [
        ("arch", {"thetaa1": 0.7}),                       # misspelt key
        ("asym_logistic", {"phi1": 0.5, "nuu": 0.152}),
        ("rootzen_smith", {"p": 0.5}),                    # takes no params
        ("ht_mixture", {"lam": 0.5}),                     # modes missing
    ])
    def test_bad_hidden_params_exit_2_with_json_line(self, tmp_path, capsys,
                                                     example, params):
        cfg = write_config(tmp_path, "bad.json", {
            "kind": "hidden", "seed": 1, "example": example, "horizon": 2,
            "n_paths": 16, "params": params})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert "takes" in err["error"]

    def test_hidden_arch_below_the_tail_index_floor_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "bad.json", {
            "kind": "hidden", "seed": 1, "example": "arch", "horizon": 2,
            "n_paths": 16, "params": {"theta1": 1e-305}})
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert "theta1 must lie in [1e-299, 1]" in err["error"]

    @pytest.mark.parametrize("change,says", [
        ({"kernel": {"id": "inverted_max_stable", "family": "power_decay",
                     "s": math.inf}},
         "exponent family 'power_decay': parameter 's' must be finite; got inf"),
        ({"kernel": {"id": "expar", "phi": 1e-310}}, "ExpAR phi = 1e-310 is below 1e-300"),
        ({"kernel": {"id": "expar", "phi": 1e-305}}, "ExpAR phi = 1e-305 is below 1e-300"),
        ({"kernel": {"id": "arch_laplace", "theta0": math.inf, "theta1": 0.7}},
         "kernel 'arch_laplace': parameter 'theta0' must be finite; got inf"),
        ({"kernel": {"id": "inverted_max_stable", "family": "husler_reiss",
                     "gamma": math.inf}},
         "exponent family 'husler_reiss': parameter 'gamma' must be finite; got inf"),
        ({"kernel": {"id": "bev_logistic", "gamma": 1e-310}}, "with 1/gamma finite"),
        ({"kernel": {"id": "inverted_bev_logistic", "gamma": 5e-324}}, "with 1/gamma finite"),
        ({"kind": "converge", "atom_cut": -5, "v_grid": [6.0],
          "kernel": {"id": "gaussian_copula", "rho": 0.8},
          "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
          "limit_law": {"id": "gaussian_exponential", "rho": 0.8}},
         "converge config has unknown key 'atom_cut'"),
        ({"init": {"x0": 0.0}}, "start x0 = 0.0 lies outside the open support"),
        ({"kind": "figure1", "x0": -1.0}, "start x0 = -1.0 lies outside the open support"),
        ({"kind": "converge", "v_grid": [6.0, 0.0],
          "kernel": {"id": "gaussian_copula", "rho": 0.8},
          "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
          "limit_law": {"id": "gaussian_exponential", "rho": 0.8}},
         "start x0 = 0.0 lies outside the open support"),
    ], ids=["power_decay_s_inf", "expar_phi_1e-310", "expar_phi_1e-305",
            "arch_theta0_inf", "husler_reiss_gamma_inf", "bev_gamma_subnormal",
            "inverted_bev_gamma_subnormal", "atom_cut_negative", "simulate_x0_floor",
            "figure1_x0_below_floor", "converge_v_at_floor"])
    def test_unusable_value_exits_2_with_json_line(self, tmp_path, capsys, change, says):
        # each of these ran into a traceback, a numeric exit 3, a non-finite
        # draw or a meaningless table
        base = ({"kind": "simulate", "kernel": {"id": "gaussian_copula", "rho": 0.8},
                 "init": {"u": 5.0}, "horizon": 1} if "kind" not in change else {})
        cfg = write_config(tmp_path, "bad.json",
                           dict(base, seed=1, n_paths=40, **change))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--workers", "1"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert says in err["error"]
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_config_error_in_a_chunk_leaves_no_csv(self, tmp_path, capsys, workers):
        # theta1 is checked only when a chunk builds the kernel, after the
        # CSV header is written
        cfg = write_config(tmp_path, "bad.json", {
            "kind": "hidden", "seed": 1, "example": "arch", "horizon": 2,
            "n_paths": 16, "params": {"theta1": 1.5}})
        out = tmp_path / "o"
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["category"] == "config"
        assert "theta1" in err["error"]
        left = os.listdir(out)
        assert "hidden_paths.csv" not in left
        assert not [f for f in left if f.endswith(".part")]


@pytest.mark.parametrize("config, name", [
    ({"kind": "simulate", "seed": 11,
      "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
      "init": {"u": 5.0}, "horizon": 4, "n_paths": 400}, "paths.csv"),
    ({"kind": "hidden", "seed": 12, "example": "asym_logistic",
      "horizon": 4, "n_paths": 64}, "hidden_paths.csv"),
    ({"kind": "simulate", "seed": 13, "kernel": {"id": "expar", "phi": 0.99},
      "init": {"u": 5.0}, "horizon": 4, "n_paths": 400}, "paths.csv"),
], ids=["arch_simulate", "asym_logistic_hidden", "expar_0_99_simulate"])
def test_paths_outputs_worker_invariant(tmp_path, config, name):
    # pool workers build their own kernels and import scipy.optimize
    # themselves; the bytes must not depend on it
    cfg = write_config(tmp_path, "p.json", config)
    for w in ("1", "2"):
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / w),
                         "--workers", w]) == 0
    assert read(tmp_path / "1" / name) == read(tmp_path / "2" / name)


@pytest.mark.parametrize("theta1", [1e-10, 1e-299])
def test_hidden_arch_at_small_theta1_gives_finite_rows(tmp_path, theta1):
    # kappa ~ e/theta1: 2.7e10 and 2.7e299
    n, T = 32, 3
    cfg = write_config(tmp_path, "a.json", {
        "kind": "hidden", "seed": 3, "example": "arch", "horizon": T,
        "n_paths": n, "params": {"theta1": theta1}})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == 0
    rows = np.loadtxt(tmp_path / "o" / "hidden_paths.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert rows.shape == (n * T, 5)
    assert np.all(np.isfinite(rows))


@pytest.mark.parametrize("beta1, beta2", [(0.5, 0.1), (0.1, 0.5)],
                         ids=["beta1_above", "beta1_below"])
def test_hidden_ht_mixture_run(tmp_path, beta1, beta2):
    n, T = 64, 6
    cfg = write_config(tmp_path, "m.json", {
        "kind": "hidden", "seed": 5, "example": "ht_mixture", "horizon": T,
        "n_paths": n, "params": {
            "alpha1": 0.9025, "beta1": beta1,
            "g1": {"id": "gaussian_exponential", "rho": 0.95},
            "alpha2": 0.3, "beta2": beta2,
            "g2": {"id": "inverted_bev_logistic", "gamma": 0.9}}})
    for w in ("1", "2"):
        assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / w),
                         "--workers", w]) == 0
    assert read(tmp_path / "1" / "hidden_paths.csv") == \
        read(tmp_path / "2" / "hidden_paths.csv")
    rows = np.loadtxt(tmp_path / "1" / "hidden_paths.csv", delimiter=",",
                      skiprows=1, ndmin=2)
    assert rows.shape == (n * T, 5)
    np.testing.assert_array_equal(rows[:, 0], np.repeat(np.arange(n), T))
    np.testing.assert_array_equal(rows[:, 1], np.tile(np.arange(1, T + 1), n))
    regime, cp = (rows[:, c].astype(int).reshape(n, T) for c in (3, 4))
    assert set(np.unique(regime)) == {1, 2}
    # the regime before t = 1 counts as 1
    before = np.column_stack([np.ones(n, dtype=int), regime[:, :-1]])
    np.testing.assert_array_equal(cp == 1, regime != before)


_GAUSSIAN = {"id": "gaussian_copula", "rho": 0.8, "margin": "exponential"}
_CONVERGE_CONFIG = {
    "kind": "converge", "seed": 3, "n_paths": 200, "v_grid": [6.0, 7.0],
    "kernel": _GAUSSIAN, "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
    "limit_law": {"id": "gaussian_exponential", "rho": 0.8}}
_CHI_SMALL_CONFIG = {"kind": "chi", "seed": 3, "n_paths": 200, "u_grid": [0.9, 0.95],
                     "kernel": _GAUSSIAN}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("config, names", [
    ({"kind": "simulate", "seed": 5, "kernel": {"id": "rootzen_smith"},
      "init": {"u": 9.0}, "horizon": 3, "n_paths": 40}, ["paths.csv"]),
    ({"kind": "hidden", "seed": 6, "example": "rootzen_smith", "horizon": 3,
      "n_paths": 40}, ["hidden_paths.csv"]),
    (dict(FIG1_CONFIG, n_paths=40), [f"chain_{t}.csv" for t in ("i", "ii", "iii", "iv")]),
    (_CONVERGE_CONFIG, ["convergence.csv", "remainders.csv"]),
    (_CHI_SMALL_CONFIG, ["chi.csv"]),
    ({"kind": "negdep", "seed": 3, "n_paths": 200}, ["negdep_signs.csv"]),
], ids=["simulate", "hidden", "figure1", "converge", "chi", "negdep"])
def test_paths_runs_leave_no_part_files(tmp_path, config, names, workers):
    # a run writes into a staging directory inside --out, and a path chunk's
    # rows pass through a part file there; only the outputs and the manifest
    # are moved into --out
    cfg = write_config(tmp_path, "p.json", config)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == 0
    assert sorted(os.listdir(out)) == sorted(names + ["manifest.json"])


_simulate_chunk = cli._task_simulate_chunk


def _fail_after_writing_chunk_3(args):
    """The simulate chunk task, except that chunk 3 fails once its part file
    is written (top-level, so a pool can pickle it)."""
    part, rows = _simulate_chunk(args)
    if args[1] == 3:
        raise ConvergenceError(f"chunk 3 failed after writing {part}")
    return part, rows


@pytest.mark.parametrize("workers", ["1", "2"])
def test_failed_paths_run_leaves_no_part_files(tmp_path, monkeypatch, workers):
    # the run fails as any numeric failure does, after chunks 0-2 are spliced
    # into the CSV; neither the CSV nor a part file is left
    monkeypatch.setattr(cli, "_task_simulate_chunk", _fail_after_writing_chunk_3)
    cfg = write_config(tmp_path, "p.json", {
        "kind": "simulate", "seed": 5, "kernel": {"id": "rootzen_smith"},
        "init": {"u": 9.0}, "horizon": 2, "n_paths": 80})
    out = tmp_path / "out"
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == cli.EXIT_NUMERIC
    assert os.listdir(out) == []


# the tasks as cli defines them, kept before a test patches them out
_TASKS = {name: getattr(cli, name)
          for name in ("_task_figure1_chain", "_task_converge_row", "_task_chi_row")}


def _fail_on_task_1(name, args):
    """The task ``name``, except that task index 1 raises (top-level, so a
    pool can pickle it)."""
    if args[1] == 1:
        raise ConvergenceError("task 1 failed")
    return _TASKS[name](args)


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("config, name, task, code", [
    # the Laplace threshold of u = 1e200 on Gaussian margins is inf, so the
    # start fails inside the chunk task
    ({"kind": "simulate", "seed": 1,
      "kernel": {"id": "gaussian_copula", "rho": 0.5, "margin": "gaussian"},
      "init": {"u": 1e200}, "horizon": 1, "n_paths": 100}, "paths.csv", None, 3),
    ({"kind": "hidden", "seed": 1, "example": "arch", "horizon": 2, "n_paths": 16,
      "params": {"theta1": 1.5}}, "hidden_paths.csv", None, 2),
    (dict(FIG1_CONFIG, n_paths=40), "chain_i.csv", "_task_figure1_chain", 3),
    (_CONVERGE_CONFIG, "convergence.csv", "_task_converge_row", 3),
    (_CHI_SMALL_CONFIG, "chi.csv", "_task_chi_row", 3),
], ids=["simulate_exit_3", "hidden_arch_exit_2", "figure1", "converge", "chi"])
def test_failed_run_leaves_out_as_it_found_it(tmp_path, monkeypatch, config, name,
                                             task, code, workers):
    # an earlier run's output and manifest stay byte-identical, and no part
    # file or staging directory is left beside them
    if task is not None:
        monkeypatch.setattr(cli, task, partial(_fail_on_task_1, task))
    out = tmp_path / "out"
    out.mkdir()
    sentinels = {name: b"earlier,run\r\n1,2\r\n", "manifest.json": b'{"earlier": 1}\n'}
    for file, data in sentinels.items():
        (out / file).write_bytes(data)
    cfg = write_config(tmp_path, "p.json", config)
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--workers", workers]) == code
    assert sorted(os.listdir(out)) == sorted(sentinels)
    for file, data in sentinels.items():
        assert read(out / file) == data


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux only")
def test_paths_run_peak_rss_does_not_grow_with_path_count(tmp_path):
    # no process holds a chunk's text: workers format a block of rows at a
    # time into part files that the parent splices.  os.wait4 gives the
    # largest of the run and the pool workers it reaps
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    peaks = []
    for n in (2_000, 40_000):
        cfg = write_config(tmp_path, f"{n}.json", {
            "kind": "simulate", "seed": 7,
            "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
            "init": {"u": 5.0}, "horizon": 20, "n_paths": n})
        proc = subprocess.Popen([sys.executable, "-m", "extreme_chains.cli", "run",
                                 "--config", cfg, "--out", str(tmp_path / str(n)),
                                 "--workers", "2"], env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        peaks.append(usage.ru_maxrss / 1024.0)
    assert peaks[1] - peaks[0] < 3.0, peaks


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in kilobytes on Linux only")
def test_figure1_peak_rss_does_not_grow_with_horizon(tmp_path):
    # each envelope summarises one step's states as they are drawn, so no
    # process holds a path matrix of the actual chain or of its tail chain
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    peaks = []
    for horizon in (5, 60):
        cfg = write_config(tmp_path, f"{horizon}.json", dict(
            FIG1_CONFIG, horizon=horizon, n_paths=10_000))
        proc = subprocess.Popen([sys.executable, "-m", "extreme_chains.cli", "run",
                                 "--config", cfg, "--out", str(tmp_path / str(horizon)),
                                 "--workers", "1"], env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0
        peaks.append(usage.ru_maxrss / 1024.0)
    assert peaks[1] - peaks[0] < 2.0, peaks


def test_simulate_takes_horizon_0(tmp_path):
    cfg = write_config(tmp_path, "s.json", {
        "kind": "simulate", "seed": 1, "kernel": {"id": "bev_logistic", "gamma": 0.2},
        "init": {"u": 5.0}, "horizon": 0, "n_paths": 10})
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == 0
    assert len(read(tmp_path / "o" / "paths.csv").splitlines()) == 1 + 10


def test_figure1_at_phi_0_99(tmp_path):
    # the exponential autoregression's law is exact up to phi = 0.99
    cfg = write_config(tmp_path, "f.json", dict(FIG1_CONFIG, phi=0.99, n_paths=200))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == 0
    with open(tmp_path / "o" / "chain_iii.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [int(r[1]) for r in rows] == list(range(1, FIG1_CONFIG["horizon"] + 1))


def test_figure1_without_canonical_norming_exits_2(tmp_path, capsys):
    # the Gaussian chain of figure 1 carries its canonical norming only for
    # rho > 0
    cfg = write_config(tmp_path, "f.json", dict(FIG1_CONFIG, rho=-0.5, n_paths=40))
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--workers", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["category"] == "config"
    assert "no canonical norming" in err["error"]


def test_cli_import_leaves_out_scipy_stats_and_integrate():
    # an allow-list: a cold CLI start loads no public scipy subpackage but
    # scipy.special and scipy.version (the density families import tanhsinh
    # on use).  That import is most of a short run's wall time, so a new
    # top-level import of, say, scipy.stats (1.2 s) or scipy.optimize (0.6 s)
    # fails here
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, extreme_chains.cli; "
            "print(sorted({m.split('.')[1] for m in sys.modules "
            "if m.startswith('scipy.') and not m.split('.')[1].startswith('_')}))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "['special', 'version']"


# scipy modules that neither a figure-1 run nor the volatility chain loads
HEAVY_SCIPY = ("scipy.optimize", "scipy.interpolate", "scipy.linalg", "scipy.sparse")


def test_figure1_run_leaves_out_scipy_optimize_interpolate_and_linalg(tmp_path):
    # no figure-1 kernel finds a root or tabulates a law, and the ARCH kernel
    # solves and tabulates its law on numpy and scipy.special alone.
    # Library callers keep the normal collector: only main freezes
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "\n".join([
        "import gc, sys",
        "from extreme_chains import cli, kernels",
        f"cli.run_experiment({FIG1_CONFIG!r}, {str(tmp_path / 'fig')!r})",
        f"print([m for m in {HEAVY_SCIPY!r} if m in sys.modules])",
        "print(gc.get_freeze_count())",
        "k = kernels.make_kernel('arch_laplace', theta0=1.0, theta1=0.7)",
        f"print(k.law.kappa > 0.0, [m for m in {HEAVY_SCIPY!r} if m in sys.modules])",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.split("\n")[:3] == ["[]", "0", "True []"]


def test_figure1_run_at_one_worker_leaves_out_multiprocessing(tmp_path):
    # only a run that starts a process pool imports one
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cfg = write_config(tmp_path, "fig.json", FIG1_CONFIG)
    code = "\n".join([
        "import sys",
        "from extreme_chains import cli",
        f"rc = cli.main(['run', '--config', {cfg!r}, '--out', "
        f"{str(tmp_path / 'fig')!r}, '--workers', '1'])",
        "print(rc, [m for m in ('multiprocessing', 'concurrent.futures.process')",
        "           if m in sys.modules])",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.split("\n")[0] == "0 []"


@pytest.mark.parametrize("config", [
    {"kind": "simulate", "seed": 3,
     "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
     "init": {"u": 5.0}, "horizon": 2, "n_paths": 64},
    {"kind": "hidden", "seed": 4, "example": "arch", "horizon": 3, "n_paths": 64,
     "params": {"theta0": 1.0, "theta1": 0.7}},
], ids=["arch_simulate", "arch_hidden"])
def test_arch_runs_leave_out_scipy_optimize_interpolate_and_linalg(tmp_path, config):
    # in one process, so the run's own imports are the ones counted
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cfg = write_config(tmp_path, "arch.json", config)
    code = "\n".join([
        "import sys",
        "from extreme_chains import cli",
        f"rc = cli.main(['run', '--config', {cfg!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--workers', '1'])",
        f"print(rc, [m for m in {HEAVY_SCIPY!r} if m in sys.modules])",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.split("\n")[0] == "0 []"


def test_paths_run_leaves_parent_without_scipy_optimize_and_interpolate(tmp_path):
    # the pool workers build the ARCH kernel and format their own rows; the
    # parent only writes them, so it never solves the stationary law.  main
    # freezes the import graph out of the collector before the run
    src = os.path.dirname(os.path.dirname(cli.__file__))
    config = {"kind": "simulate", "seed": 3,
              "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
              "init": {"u": 5.0}, "horizon": 2, "n_paths": 64}
    cfg = write_config(tmp_path, "arch.json", config)
    code = "\n".join([
        "import gc, sys",
        "from extreme_chains import cli",
        f"rc = cli.main(['run', '--config', {cfg!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--workers', '2'])",
        "print(rc, [m for m in ('scipy.optimize', 'scipy.interpolate')",
        "           if m in sys.modules])",
        "print(gc.get_freeze_count() > 0)",
    ])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    assert out.stdout.split("\n")[:2] == ["0 []", "True"]
    assert len(read(tmp_path / "out" / "paths.csv").splitlines()) == 1 + 64 * 3


@pytest.mark.parametrize("config", [
    {"kind": "figure1", "seed": 3, "n_paths": 40},
    {"kind": "negdep", "seed": 3},
    {"kind": "converge", "seed": 3, "n_paths": 200, "v_grid": [6.0],
     "kernel": _GAUSSIAN,
     "scheme": {"id": "ht_canonical", "alpha": 0.64, "beta": 0.5},
     "limit_law": {"id": "gaussian_exponential", "rho": 0.8}},
    {"kind": "chi", "seed": 3, "n_paths": 200, "u_grid": [0.9],
     "kernel": _GAUSSIAN},
    {"kind": "hidden", "seed": 3, "example": "arch", "horizon": 3, "n_paths": 40},
], ids=lambda config: config["kind"])
def test_defaults_are_declared_once(tmp_path, config):
    # leaving out every optional key writes what spelling out its default does
    spelt = dict(cli._KINDS[config["kind"]][2], **config)
    assert len(spelt) > len(config)
    outputs = [cli.run_experiment(c, str(tmp_path / name), workers=1)
               for name, c in (("left_out", config), ("spelt", spelt))]
    assert [os.path.basename(p) for p, _ in outputs[0]] == \
        [os.path.basename(p) for p, _ in outputs[1]]
    for (left_out, _), (given, _) in zip(*outputs):
        assert read(left_out) == read(given)
    with open(tmp_path / "left_out" / "manifest.json") as fh:
        assert json.load(fh)["config"] == config       # echoed as given


def test_runs_keep_the_benchmark_entry_points(tmp_path, monkeypatch):
    # the benchmark builds and traces kernels through
    # kernels.make_kernel(id, **params) and reads the id from the first argument
    made, fits = [], []
    make_kernel, fit = kernels.make_kernel, numerics.arch_stationary_fit

    def record_make(*args, **params):
        made.append(args)
        return make_kernel(*args, **params)

    def record_fit(*args):
        fits.append(args)
        return fit(*args)

    monkeypatch.setattr(kernels, "make_kernel", record_make)
    monkeypatch.setattr(numerics, "arch_stationary_fit", record_fit)
    cli._kernel_from_json.cache_clear()
    cli.run_experiment(dict(FIG1_CONFIG, n_paths=40), str(tmp_path / "fig"),
                       workers=1)
    assert made == [("bev_logistic",), ("inverted_bev_logistic",), ("expar",),
                    ("gaussian_copula",)]
    made.clear()
    mixture = {"id": "ht_mixture", "lam": 0.5, "k1": _GAUSSIAN,
               "k2": {"id": "inverted_bev_logistic", "gamma": 0.9}}
    cli.run_experiment({"kind": "simulate", "seed": 2, "kernel": mixture,
                        "init": {"u": 6.0}, "horizon": 2, "n_paths": 40},
                       str(tmp_path / "mix"), workers=1)
    assert made == [("ht_mixture",), ("gaussian_copula",), ("inverted_bev_logistic",)]
    # one stationary fit for all 8 chunks: the kernel is built once per process
    cli.run_experiment({"kind": "simulate", "seed": 2, "init": {"u": 5.0},
                        "kernel": {"id": "arch_laplace", "theta0": 1.0, "theta1": 0.7},
                        "horizon": 2, "n_paths": 64}, str(tmp_path / "arch"),
                       workers=1)
    assert fits == [(1.0, 0.7)]
