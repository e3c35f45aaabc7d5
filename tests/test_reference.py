"""The CSVs of the demo and benchmark configs match the committed reference.

Labels and integer columns must match exactly and float columns within
1e-13 of max(|x|, 1): the ARCH law's linear solve moves its paths by a few
ulps across BLAS thread counts, and numpy's SIMD exp and log may differ by an
ulp on another CPU.  So the sha256 is not asserted; the test prints, for each
config where some file's digest differs (``pytest -s``), those files, each
with the largest move among its sampled rows in units of max(|x|, 1), for a
change to quote.  After a change that moves a stream,
``OPENBLAS_NUM_THREADS=1 python tests/make_reference.py`` rewrites the reference.
"""

import csv
import json
import math

import pytest

from make_reference import CONFIGS, REFERENCE, run_config

FLOAT_RTOL = 1e-13


def _field_move(got, want):
    """How far ``got`` lies from ``want``: 0 or inf for labels and integers,
    which must match exactly, else in units of max(|want|, 1)."""
    try:
        int(want)
        return 0.0 if got == want else math.inf
    except ValueError:
        pass
    try:
        a, b = float(got), float(want)
    except ValueError:
        return 0.0 if got == want else math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(b), 1.0)


def _field_matches(got, want):
    return _field_move(got, want) <= FLOAT_RTOL


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_match_reference(name, tmp_path):
    reference = json.loads((REFERENCE / f"{name}.json").read_text())
    outputs = run_config(name, tmp_path)
    assert sorted(outputs) == sorted(reference)
    moved = []
    for file, (header, rows, digest) in outputs.items():
        ref = reference[file]
        assert header == ref["header"], file
        assert len(rows) == ref["rows"], file
        largest = 0.0
        for j, want in enumerate(csv.reader(ref["sample"])):
            got = rows[j * ref["step"]]
            assert len(got) == len(want) and all(map(_field_matches, got, want)), \
                f"{file} row {j * ref['step'] + 1}: {got} != {want}"
            largest = max([largest, *map(_field_move, got, want)])
        if digest != ref["sha256"]:
            moved.append(f"{file} (largest sampled move {largest:.3g})")
    if moved:
        print(f"{name}: sha256 differs for {', '.join(moved)}")


def test_field_match_is_exact_on_labels_and_integers():
    assert _field_matches("bev_logistic", "bev_logistic")
    assert not _field_matches("bev_logistic", "bev_logistic ")
    assert not _field_matches("12.0", "12")
    assert _field_matches("1.0000000000000002", "1.0")
    assert _field_matches("nan", "nan")
    assert not _field_matches("1.0000000000002", "1.0")
