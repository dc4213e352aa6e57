"""Source-level rules for the library package."""

import ast
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from rikit.spaces import _FAMILIES, _Family

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SRC = sorted((SRC_DIR / "rikit").glob("*.py"))


@pytest.mark.parametrize("path", SRC, ids=lambda p: p.name)
def test_no_assert_statements(path):
    # invariant checks raise typed RikitErrors; assert vanishes under -O
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name}: assert at lines {lines}"


def test_no_lexsort_in_src():
    # the rearrangement sorts with one default argsort and orders ties
    # inside runs of equal values only; np.lexsort is a merge sort per key
    assert [path.name for path in SRC if "lexsort" in path.read_text()] == []


def test_import_does_not_load_scipy_optimize():
    # scipy.optimize is most of the import time; only the solver needs it
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = "import rikit, sys; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_half_line_density_report_loads_no_scipy_special():
    # the incomplete gamma function of the power-log heads is the library's
    # own: a report over one loads nothing of scipy.special
    env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
    code = ("import rikit, sys; from rikit.spaces import FundamentalFn, NormSpec; "
            "rikit.density_criteria_report("
            "NormSpec.lambda_q(FundamentalFn.power_log(0.5, 1), 2), 1); "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.special')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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
    # every program runs through solve_separable_power: no SLSQP, no
    # L-BFGS-B and no scipy minimize anywhere; a stalled Newton run
    # restarts from the HiGHS duals
    users = set()
    for path in SRC:
        text = path.read_text()
        assert "SLSQP" not in text and "L-BFGS-B" not in text, path.name
        users |= {(path.name, fn) for fn in _minimize_users(ast.parse(text))}
    assert users == set()


def _modules(tree):
    """Every module the tree imports, and every name it mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
    yield from _references(tree)


def test_one_lp_path():
    # every p = 1 program goes to HiGHS through scipy's binding in
    # solver.py, with linprog's model and options but not its wrapper, and
    # no sparse matrix is built on the way
    binders = []
    for path in SRC:
        parts = {part for name in _modules(ast.parse(path.read_text()))
                 for part in name.split(".")}
        assert not parts & {"linprog", "sparse"}, path.name
        if "_highspy" in parts:
            binders.append(path.name)
    assert binders == ["solver.py"]


_LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def test_sup_norms_have_no_python_loops():
    # the sup-type norms take their supremum with numpy, not per point, and
    # the limit of the M_p supremum at infinity is read off one total
    tree = ast.parse((SRC_DIR / "rikit" / "spaces.py").read_text())
    names = {"_sup_mp_phi", "_mp_tail", "_sup_star_phi"}
    bodies = {top.name: top for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name in names}
    assert set(bodies) == names
    loops = [(name, node.lineno) for name, fn in bodies.items()
             for node in ast.walk(fn) if isinstance(node, _LOOPS)]
    assert not loops, f"loops at {loops}"
    defined = {top.name for top in tree.body if isinstance(top, ast.FunctionDef)}
    assert not defined & {"_edge_groups", "_unbounded_tail"}


def _maximal_function(name):
    tree = ast.parse((SRC_DIR / "rikit" / "maximal.py").read_text())
    return next(top for top in tree.body
                if isinstance(top, ast.FunctionDef) and top.name == name)


def test_boyd_bounds_read_the_fundamental_function():
    # without a closed form the Boyd report reads the indicator bounds off
    # the fundamental function: it evaluates no norm and dilates nothing,
    # and no family carries a row evaluator for a candidate sweep
    names = set()
    for fn in ("boyd_upper_lowerbound", "_boyd_bounds"):
        names |= set(_references(_maximal_function(fn)))
    assert not names & {"norm", "dilation", "rows"}
    assert "rows" not in {f.name for f in fields(_Family)}
    trees = [ast.parse(path.read_text()) for path in SRC]
    named = {name for tree in trees for name in (*_references(tree), *_definitions(tree))}
    assert not named & {"_BOYD_CANDIDATES", "_default_boyd_candidates", "_dilate_rows",
                        "_integrals_rows", "_mp_rows", "_mp_tail_rows", "_sup_mp_family"}


def test_criterion_B_and_the_coherence_check_have_no_dead_loops():
    # no refinement-doubling loop in criterion B (it could never fire), and
    # one pass over the implications in the report (no verdict is upgraded)
    assert not [node.lineno for node in ast.walk(_maximal_function("criterion_B"))
                if isinstance(node, _LOOPS)]
    assert not [node.lineno for node in ast.walk(_maximal_function("density_criteria_report"))
                if isinstance(node, ast.While)]


@pytest.mark.parametrize("module, name", [("metric.py", "poincare_ratio"),
                                          ("regularize.py", "sharp_maximal")])
def test_ball_sweeps_loop_only_over_blocks(module, name):
    # the sweeps take array passes over each block of centres: their one
    # loop runs over _ball_index, with none per centre or per ball
    tree = ast.parse((SRC_DIR / "rikit" / module).read_text())
    fn = next(top for top in tree.body
              if isinstance(top, ast.FunctionDef) and top.name == name)
    loops = [node for node in ast.walk(fn) if isinstance(node, _LOOPS)]
    assert len(loops) == 1, f"loops at {[node.lineno for node in loops]}"
    assert isinstance(loops[0], ast.For)
    assert getattr(loops[0].iter, "func", None) is not None
    assert getattr(loops[0].iter.func, "id", None) == "_ball_index"


def test_maximal_metric_takes_one_power_per_point():
    # M_p u = (M_1 |u|^p)^{1/p}: the block loop takes the means of |u|^p and
    # no power; the ball index reads its distances off one sort of the rows
    loop = next(node for node in ast.walk(_maximal_function("maximal_metric"))
                if isinstance(node, ast.For))
    powers = [node.lineno for node in ast.walk(loop)
              if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
              or isinstance(node, ast.Attribute) and node.attr in ("power", "float_power")]
    assert not powers, f"powers at lines {powers}"
    tree = ast.parse((SRC_DIR / "rikit" / "metric.py").read_text())
    index = next(top for top in tree.body
                 if isinstance(top, ast.FunctionDef) and top.name == "_ball_index")
    assert "take_along_axis" not in set(_references(index))


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


# the log-axis quadrature and the per-interval walker built on it
_QUADRATURE = {"_gauss_log_rows", "_power_integral_rows"}


def test_no_loop_calls_the_quadrature_kernel():
    # intervals, cells and segments go to the kernel in one batch; only the
    # dyadic refinement toward 0 calls it in a loop, one block of levels per
    # call, since a level decides whether the next one runs
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


def test_every_private_definition_is_used_by_the_library():
    # a private helper that only tests call is a path the library never
    # runs: tests alone cannot keep it alive
    used = set()
    for path in SRC:
        used.update(_references(ast.parse(path.read_text())))
    unused = [f"{path.name}:{name}" for path in SRC
              for name in _definitions(ast.parse(path.read_text()))
              if name.startswith("_") and not name.startswith("__") and name not in used]
    assert not unused, f"referenced from tests or bench alone: {unused}"


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


def test_one_segmentation_per_shape():
    # a shape declares its breaks and a table of forms; FundamentalFn alone
    # cuts an interval into kinks and pieces and looks a form up, so the
    # three cannot disagree
    tree = ast.parse((SRC_DIR / "rikit" / "spaces.py").read_text())
    cutters = [(top.name, node.name) for top in tree.body if isinstance(top, ast.ClassDef)
               for node in top.body if isinstance(node, ast.FunctionDef)
               and node.name in ("kinks", "pieces", "form")]
    assert sorted(cutters) == [("FundamentalFn", "form"), ("FundamentalFn", "kinks"),
                               ("FundamentalFn", "pieces")]
    names = {getattr(node, "name", getattr(node, "id", getattr(node, "attr", None)))
             for node in ast.walk(tree)}
    assert not names & {"_clip_pieces", "_starts", "_forms"}


def test_one_status_rule():
    # a rule's outcome becomes a status in _status alone: no verdict picks
    # TRUE or FALSE by itself
    tree = ast.parse((SRC_DIR / "rikit" / "maximal.py").read_text())
    status = next(top for top in tree.body
                  if isinstance(top, ast.FunctionDef) and top.name == "_status")
    inside = {id(node) for node in ast.walk(status)}
    choosers = [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.IfExp) and id(node) not in inside
                and {getattr(node.body, "id", None), getattr(node.orelse, "id", None)}
                & {"TRUE", "FALSE"}]
    assert not choosers, f"TRUE or FALSE chosen at lines {choosers}"


def test_lambda_q_fundamental_has_one_path():
    # every point set takes the sweep; no dispatch on the pieces of phi
    tree = ast.parse((SRC_DIR / "rikit" / "spaces.py").read_text())
    cls = next(top for top in tree.body
               if isinstance(top, ast.ClassDef) and top.name == "_LambdaQFundamental")
    assert "_generic_start" not in _calls(cls, {})


def _calls(node, nested):
    """Names of the functions called under node and, transitively, under the
    ``nested`` functions (name -> def) that it calls."""
    names, todo = set(), [node]
    while todo:
        for sub in ast.walk(todo.pop()):
            if isinstance(sub, ast.Call):
                name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
                if name in nested and name not in names:
                    todo.append(nested[name])
                names.add(name)
    return names


def test_newton_loop_is_lean():
    # a Newton run enters one errstate, around all of it; its steps compare
    # scalar residuals and build no certificate; the point formulas leave
    # the errstate to their callers, and curve rows come in one pass
    fns = dict(_functions(ast.parse((SRC_DIR / "rikit" / "solver.py").read_text())))
    newton = fns["_dual_newton"]
    nested = {node.name: node for node in ast.walk(newton)
              if isinstance(node, ast.FunctionDef) and node is not newton}
    assert sum(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "errstate"
               for node in ast.walk(newton)) == 1
    inner = [node for node in ast.walk(newton)
             if isinstance(node, _LOOPS) or node in nested.values()]
    assert not any("errstate" in _calls(node, {}) for node in inner)
    costly = {"errstate", "_certificate", "_feasibility", "_power_certificate"}
    per_step = [(loop.lineno, _calls(part, nested) & costly) for loop in ast.walk(newton)
                if isinstance(loop, _LOOPS) for part in _per_iteration(loop)]
    assert not [hit for hit in per_step if hit[1]], per_step
    for name in ("_power_primal", "_dual_point"):
        assert "errstate" not in _calls(fns[name], {}), name
    rows = [(name, loop.lineno)
            for name, fn in _functions(ast.parse((SRC_DIR / "rikit" / "metric.py").read_text()))
            for loop in ast.walk(fn) if isinstance(loop, _LOOPS)
            for part in _per_iteration(loop) if "_family_rows" in _calls(part, {})]
    assert not rows, f"_family_rows called per iteration: {rows}"


def test_curve_checks_read_the_program_rows():
    # the trapezoid rule lives in _family_rows alone: the line integral, the
    # upper-gradient check and the upper-gradient program take their curve
    # integrals and endpoint drops as arrays, with no loop per curve; no
    # scalar drop, no second m_phi base grid and no stop mask in the walker
    fns = dict(_functions(ast.parse((SRC_DIR / "rikit" / "metric.py").read_text())))
    loops = [(name, node.lineno) for name in
             ("line_integral", "is_upper_gradient", "minimal_upper_gradient")
             for node in ast.walk(fns[name]) if isinstance(node, _LOOPS)]
    assert not loops, f"loops at {loops}"
    for path in SRC:
        tree = ast.parse(path.read_text())
        named = {*_references(tree), *_definitions(tree)}
        assert not named & {"_M_PHI_GRID", "_endpoint_drop", "stopped"}, path.name


def _kind_readers(kind):
    """(module, function) of every comparison of a name ``kind`` with the
    string ``kind``, in an operand or inside a tuple, list or set operand."""
    readers = set()
    for path in SRC:
        for name, fn in _functions(ast.parse(path.read_text())):
            for node in ast.walk(fn):
                if not isinstance(node, ast.Compare):
                    continue
                operands = [node.left, *node.comparators]
                operands += [x for op in operands
                             if isinstance(op, (ast.Tuple, ast.List, ast.Set)) for x in op.elts]
                if any(isinstance(x, ast.Constant) and x.value == kind for x in operands) and any(
                        isinstance(x, ast.Name) and x.id == "kind" for x in operands):
                    readers.add((path.name, name))
    return readers


def test_power_facts_are_read_in_one_place():
    # maximal neither imports nor dispatches on a shape class; a shape's
    # power behaviour is read off its pieces, and only _power_on (besides
    # the closed-form piece integral) turns a "power" form into a fact; a
    # power-log head is read in _regular_head and the piece integral alone
    spaces = ast.parse((SRC_DIR / "rikit" / "spaces.py").read_text())
    maximal = ast.parse((SRC_DIR / "rikit" / "maximal.py").read_text())
    shapes = {top.name for top in spaces.body if isinstance(top, ast.ClassDef)
              and (top.name == "FundamentalFn"
                   or any(getattr(b, "id", None) == "FundamentalFn" for b in top.bases))}
    assert {"PowerPhi", "PsiMajorantPhi", "_MaxPhi"} <= shapes
    # the base class stays importable, as the annotation of a shape argument
    imported = {alias.asname or alias.name: alias.name for node in ast.walk(maximal)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not set(imported.values()) & (shapes - {"FundamentalFn"})
    checked = {imported.get(name, name) for node in ast.walk(maximal)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
               for name in _references(node)}
    assert not checked & shapes, checked & shapes
    for path in SRC:
        tree = ast.parse(path.read_text())
        assert "power_exponent" not in {*_references(tree), *_definitions(tree)}, path.name
    readers = set()
    for path in SRC:
        for name, fn in _functions(ast.parse(path.read_text())):
            for node in ast.walk(fn):
                if isinstance(node, ast.Compare) and any(
                        isinstance(x, ast.Constant) and x.value == "power"
                        for x in [node.left, *node.comparators]) and any(
                        isinstance(x, ast.Name) and x.id == "kind"
                        for x in [node.left, *node.comparators]):
                    readers.add((path.name, name))
    assert readers == {("spaces.py", "_power_on"), ("spaces.py", "_piece_integral")}, readers
    assert _kind_readers("power_log") == {("spaces.py", "_regular_head"),
                                          ("spaces.py", "_piece_integral")}


def test_psi_is_built_from_the_pieces_of_phi():
    # psi takes its supremum over phi's kinks and peaks: no base grid, and
    # no GridFn rendering of it is left
    tree = ast.parse((SRC_DIR / "rikit" / "spaces.py").read_text())
    psi = next(top for top in tree.body
               if isinstance(top, ast.ClassDef) and top.name == "PsiMajorantPhi")
    names = set(_references(psi))
    assert not names & {"geometric_grid", "geomspace", "DEFAULT_SUP_POINTS"}, names
    for path in SRC:
        tree = ast.parse(path.read_text())
        assert "psi_majorant" not in {*_references(tree), *_definitions(tree)}, path.name


def test_no_family_dispatch_outside_the_table():
    # what differs between families is read from _FAMILIES: no comparison
    # in the package names a family, or a rule name of the string field
    # that the Lorentz index q0 replaced
    names = set(_FAMILIES) | {"lorentz", "weak", "weak-power"}
    found = []
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                operands += [x for op in operands
                             if isinstance(op, (ast.Tuple, ast.List, ast.Set)) for x in op.elts]
                found += [(path.name, node.lineno, x.value) for x in operands
                          if isinstance(x, ast.Constant) and x.value in names]
    assert not found, found
    assert "density" not in _Family.__dataclass_fields__
    assert "lorentz_q" in _Family.__dataclass_fields__
