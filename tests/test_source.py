"""Source-level rules for the library package."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SRC = sorted((SRC_DIR / "rikit").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariant checks raise typed RikitErrors; assert vanishes under -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is most of the import time; only the solver needs it
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = "import rikit, sys; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_generators_do_not_load_scipy():
    # the generators certify their spaces with numpy alone; an import of
    # scipy.sparse.csgraph alone would cost about 0.4 s of start-up
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = ("import rikit, sys; rikit.path_space(5); rikit.grid_space(3, 4); "
            "rikit.tree_space(2, 3); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
