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


def _minimize_users(tree):
    """Top-level functions (or '<module>') that import or call a minimize."""
    users = set()
    for top in tree.body:
        owner = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom) and any(a.name == "minimize" for a in node.names):
                users.add(owner)
            elif isinstance(node, ast.Call):
                fn = node.func
                name = fn.id if isinstance(fn, ast.Name) else getattr(fn, "attr", None)
                if name == "minimize":
                    users.add(owner)
    return users


def test_one_solver_path():
    # every program runs through solve_separable_power: no SLSQP anywhere,
    # and scipy's minimize only brings a cold dual Newton start near
    users = set()
    for path in SRC:
        text = path.read_text()
        assert "SLSQP" not in text, path.name
        users |= {(path.name, fn) for fn in _minimize_users(ast.parse(text))}
    assert users == {("solver.py", "_lbfgs_start")}


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_sup_norms_have_no_python_loops():
    # the sup-type norms take their supremum with numpy, not per point
    tree = ast.parse((SRC_DIR / "rikit" / "spaces.py").read_text())
    bodies = {top.name: top for top in tree.body
              if isinstance(top, ast.FunctionDef)
              and top.name in ("_sup_mp_phi", "_sup_star_phi")}
    assert set(bodies) == {"_sup_mp_phi", "_sup_star_phi"}
    loops = [(name, node.lineno) for name, fn in bodies.items()
             for node in ast.walk(fn) if isinstance(node, _LOOPS)]
    assert not loops, f"loops at {loops}"


def _definitions(tree):
    """Top-level functions and classes, and the methods of those classes."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            yield top.name
        if isinstance(top, ast.ClassDef):
            yield from (node.name for node in top.body
                        if isinstance(node, ast.FunctionDef))


def _references(tree):
    """Every name, attribute and imported name the tree mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")


def test_every_definition_is_used():
    # a definition nothing mentions is a second path nobody runs; dunder
    # methods are called by the language, not by name
    root = SRC_DIR.parent
    used = set()
    for folder in ("src", "tests", "bench"):
        for path in (root / folder).rglob("*.py"):
            used.update(_references(ast.parse(path.read_text())))
    unused = [f"{path.name}:{name}" for path in SRC
              for name in _definitions(ast.parse(path.read_text()))
              if name not in used and not name.startswith("__")]
    assert not unused, f"never referenced: {unused}"
