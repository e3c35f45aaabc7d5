"""The CSVs of the demo and benchmark configs match the committed reference.

Labels and integer columns must match exactly and float columns within
1e-13 of max(|x|, 1): the ARCH law's linear solve moves its paths by a few
ulps across BLAS thread counts, and numpy's SIMD exp and log may differ by an
ulp on another CPU.  So the sha256 is not asserted; the test prints the files
whose digest differs (``pytest -s``), for a change to quote.  After a change
that moves a stream, ``python tests/make_reference.py`` rewrites the reference.
"""

import csv
import json
import math

import pytest

from make_reference import CONFIGS, REFERENCE, run_config

FLOAT_RTOL = 1e-13


def _field_matches(got, want):
    try:
        int(want)
        return got == want
    except ValueError:
        pass
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(b):
        return math.isnan(a)
    return a == b or abs(a - b) <= FLOAT_RTOL * max(abs(b), 1.0)


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
        for j, want in enumerate(csv.reader(ref["sample"])):
            got = rows[j * ref["step"]]
            assert len(got) == len(want) and all(map(_field_matches, got, want)), \
                f"{file} row {j * ref['step'] + 1}: {got} != {want}"
        if digest != ref["sha256"]:
            moved.append(file)
    print(f"{name}: sha256 differs for {', '.join(moved) or 'no file'}")


def test_field_match_is_exact_on_labels_and_integers():
    assert _field_matches("bev_logistic", "bev_logistic")
    assert not _field_matches("bev_logistic", "bev_logistic ")
    assert not _field_matches("12.0", "12")
    assert _field_matches("1.0000000000000002", "1.0")
    assert _field_matches("nan", "nan")
    assert not _field_matches("1.0000000000002", "1.0")
