"""The demos and README's library tour run end to end, and the demos use only
the package's public names."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def _run_python(args):
    """``python args`` from the repository root with ``src`` on the path."""
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("demo", ["01_tail_chain_convergence.py",
                                  "02_figure_envelopes.py",
                                  "03_hidden_tail_chains.py",
                                  "04_negative_dependence_and_chi.py"])
def test_demo_runs(demo):
    done = _run_python([str(DEMOS / demo)])
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.strip()


def test_readme_python_blocks_run_in_order():
    # a name the library tour uses that is deleted or renamed fails here
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    assert blocks
    done = _run_python(["-c", "\n".join(blocks)])
    assert done.returncode == 0, done.stderr[-2000:]


def _private_names(tree):
    """Each ``extreme_chains`` name starting with ``_`` that ``tree`` uses."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(a.asname or a.name.split(".")[0] for a in node.names
                           if a.name.split(".")[0] == "extreme_chains")
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "extreme_chains":
            for a in node.names:
                if a.name.startswith("_"):
                    found.append(a.name)
                else:
                    modules.add(a.asname or a.name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(node.attr)
    return found


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_uses_no_private_name(demo):
    assert _private_names(ast.parse((DEMOS / demo).read_text())) == []


def test_private_name_scan_finds_a_private_task():
    tree = ast.parse("from extreme_chains import cli, _x\n"
                     "import extreme_chains.kernels as k\n"
                     "cli._task_figure1_chain(1)\nk._integrate\ncli.run_experiment\n")
    assert sorted(_private_names(tree)) == ["_integrate", "_task_figure1_chain", "_x"]
