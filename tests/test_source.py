"""Source-level rules for the library package."""

import ast
import math
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
    # and scipy's minimize runs only as the retry after a stalled Newton run
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


def _functions(tree):
    """(name, node) of every top-level function and method of a top-level class."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            yield from ((f"{top.name}.{node.name}", node) for node in top.body
                        if isinstance(node, ast.FunctionDef))


def _per_iteration(loop):
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(loop, (ast.For, ast.While)):
        parts = loop.body + loop.orelse + ([loop.test] if isinstance(loop, ast.While) else [])
    else:
        parts = [getattr(loop, f) for f in ("elt", "key", "value") if hasattr(loop, f)]
        parts += [cond for gen in loop.generators for cond in gen.ifs]
        parts += [gen.iter for gen in loop.generators[1:]]
    return parts


# the log-axis quadrature and the per-interval weights built on it
_QUADRATURE = {"_gauss_log_rows", "_phi_weight_rows", "_phi_weight_integral"}


def test_no_loop_calls_the_quadrature_kernel():
    # intervals, cells and segments go to the kernel in one batch; only the
    # dyadic refinement toward 0 runs its levels one after another, since a
    # level decides whether the next one runs
    calls = []
    for path in SRC:
        for name, fn in _functions(ast.parse(path.read_text())):
            for loop in ast.walk(fn):
                if not isinstance(loop, _LOOPS):
                    continue
                for part in _per_iteration(loop):
                    for node in ast.walk(part):
                        if isinstance(node, ast.Call):
                            callee = getattr(node.func, "id", getattr(node.func, "attr", None))
                            if callee in _QUADRATURE:
                                calls.append((path.name, name, callee, node.lineno))
    assert {(f, n, c) for f, n, c, _ in calls} == {
        ("spaces.py", "_dyadic_integral", "_gauss_log_rows")}, calls


def test_one_quadrature_kernel():
    # only the kernel reads the Gauss-Legendre nodes and weights
    readers = set()
    for path in SRC:
        for name, fn in _functions(ast.parse(path.read_text())):
            if any(isinstance(node, ast.Name) and node.id in ("_GAUSS_X", "_GAUSS_W")
                   for node in ast.walk(fn)):
                readers.add((path.name, name))
    assert readers == {("spaces.py", "_gauss_log_rows")}


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


def _defaulted_parameters(tree):
    """(callee, parameter, position or None) of every defaulted parameter of
    a module-level function, a method or a constructor.

    A method is called by its own name and a constructor by its class's;
    their positions leave out self or cls, unless the method is static.
    """
    for top in tree.body:
        if isinstance(top, ast.FunctionDef):
            yield from _defaults(top.name, top.args, 0)
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in node.decorator_list)
                    name = top.name if node.name == "__init__" else node.name
                    yield from _defaults(name, node.args, 0 if static else 1)


def _defaults(name, args, skip):
    positional = (args.posonlyargs + args.args)[skip:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional[first:], first):
        yield name, arg.arg, i
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield name, arg.arg, None


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a knob that does nothing: inline
    # its value.  A call matches by the callee's name; it passes a parameter
    # by keyword, by **kwargs, or by enough positional arguments (*args
    # counts as all of them).
    root = SRC_DIR.parent
    keywords, reach = set(), {}
    for folder in ("src", "tests", "bench"):
        for path in (root / folder).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords.update((name, kw.arg) for kw in node.keywords)
                n = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                     else len(node.args))
                reach[name] = max(reach.get(name, 0), n)
    unused = [f"{path.name}:{fn}({arg})" for path in SRC
              for fn, arg, i in _defaulted_parameters(ast.parse(path.read_text()))
              if (fn, arg) not in keywords and (fn, None) not in keywords
              and not (i is not None and reach.get(fn, 0) > i)]
    assert not unused, f"never passed: {unused}"


def test_only_spaces_walks_the_pieces_of_a_shape():
    # one piece walker integrates the powers of phi: the other modules call
    # it and not the pieces, the kernel or its row helpers
    walkers = [path.name for path in SRC if path.name != "spaces.py"
               and ".pieces(" in path.read_text()]
    assert not walkers, f"calls .pieces(: {walkers}"
    tree = ast.parse((SRC_DIR / "rikit" / "maximal.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert not imported & {"_gauss_log_rows", "_rowwise", "_sum_in_order"}
