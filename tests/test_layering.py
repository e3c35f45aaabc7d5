"""The package's modules stack in layers: no module takes a private name from
a sibling, and margins, numerics, errors and norming import none of the
modules built on them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "extreme_chains"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")
LOWER = ("margins", "numerics", "errors", "norming")
UPPER = ("kernels", "tailchain", "diagnostics", "cli")


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _from_module(node):
    """The sibling an ``ImportFrom`` reads, '' for the package itself and
    None for an import from outside the package."""
    if node.level == 1:
        return node.module or ""
    head, _, rest = (node.module or "").partition(".")
    return rest if node.level == 0 and head == "extreme_chains" else None


def scan(tree):
    """The siblings ``tree`` imports, and each private name it takes from one
    as ``sibling.name``, by import or by attribute."""
    imported, bound, private = set(), {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "extreme_chains" and rest:
                    imported.add(rest)
        elif isinstance(node, ast.ImportFrom) and (module := _from_module(node)) is not None:
            if module:
                imported.add(module)
            for alias in node.names:
                if not module and alias.name in MODULES:
                    imported.add(alias.name)
                    bound[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    private.append(f"{module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name) and node.value.id in bound):
            private.append(f"{bound[node.value.id]}.{node.attr}")
    return imported, private


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


@pytest.mark.parametrize("module", MODULES)
def test_no_private_name_from_a_sibling(module):
    assert scan(_tree(module))[1] == []


@pytest.mark.parametrize("module", LOWER)
def test_lower_layers_import_no_upper_one(module):
    assert sorted(scan(_tree(module))[0] & set(UPPER)) == []


def test_scan_finds_each_import_form():
    tree = ast.parse("from . import kernels as k, __version__\n"
                     "from .margins import log1mexp, _LOG2\n"
                     "from extreme_chains.cli import main\n"
                     "import extreme_chains.tailchain\n"
                     "import numpy._core\n"
                     "def f():\n    from .numerics import _chebval\n    return k._FLOOR\n")
    imported, private = scan(tree)
    assert imported == {"kernels", "margins", "cli", "tailchain", "numerics"}
    assert sorted(private) == ["kernels._FLOOR", "margins._LOG2", "numerics._chebval"]
