"""Tests of the separable-power solve path: warm-started dual Newton.

The golden optima were computed by the previous solver (cold L-BFGS-B
each round, then one Newton polish) on the benchmark's path, grid and
tree instances.  Each entry keeps that solver's own certified residual:
its optimum is only known to within that residual, so the agreement
asked for is 1e-9 relative plus twice the recorded residual.
"""

import json
import math

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import rikit.solver as solver
from rikit.errors import SolverStall
from rikit.metric import (
    Curve,
    CurveFamily,
    grid_space,
    minimal_hajlasz,
    minimal_upper_gradient,
    modulus,
    path_space,
    tree_space,
)
from rikit.solver import constraint_generation, solve_separable_power


def ramp(n):
    return np.cumsum(np.random.default_rng(n).uniform(0.2, 1.0, n))


def wave(n):
    return np.random.default_rng(n).standard_normal(n)


def root_path(i):
    out = [i]
    while i:
        i = (i - 1) // 2
        out.append(i)
    return tuple(out)


def tree_paths():
    edges = [Curve((i, (i - 1) // 2)) for i in range(1, 31)]
    return CurveFamily([Curve(root_path(leaf)) for leaf in range(15, 31)] + edges[:14])


def crossings(k):
    return CurveFamily([Curve(tuple(r * k + c for c in range(k))) for r in range(k)])


def lines(k):
    return CurveFamily([Curve(tuple(r * k + c for c in range(k))) for r in range(k)]
                       + [Curve(tuple(r * k + c for r in range(k))) for c in range(k)])


PROGRAMS = {
    "modulus_path": lambda p: modulus(path_space(30), CurveFamily.path_subpaths(12), p),
    "modulus_grid": lambda p: modulus(grid_space(5, 5), crossings(5), p),
    "modulus_tree": lambda p: modulus(tree_space(2, 4), tree_paths(), p),
    "upper_path": lambda p: minimal_upper_gradient(
        path_space(16), ramp(16), CurveFamily.path_subpaths(16), p),
    "upper_grid": lambda p: minimal_upper_gradient(grid_space(4, 4), wave(16), lines(4), p),
    "upper_tree": lambda p: minimal_upper_gradient(tree_space(2, 4), wave(31), tree_paths(), p),
    "hajlasz_path": lambda p: minimal_hajlasz(path_space(12), ramp(12), p),
    "hajlasz_grid": lambda p: minimal_hajlasz(grid_space(4, 4), wave(16), p),
    "hajlasz_tree": lambda p: minimal_hajlasz(tree_space(2, 4), wave(31), p),
}

# (program, p): (optimum, kkt_residual) of the previous solver
GOLDEN = {
    ("modulus_path", 1.05): (12.000000000000027, 4.7e-15),
    ("modulus_path", 1.2): (12.000000000000004, 1.3e-15),
    ("modulus_path", 2.0): (11.999999999999998, 4.4e-16),
    ("modulus_path", 3.0): (11.999999999999998, 3.3e-16),
    ("modulus_grid", 1.05): (4.732754037975706, 2.2e-16),
    ("modulus_grid", 1.2): (4.005397783429009, 2.1e-16),
    ("modulus_grid", 2.0): (1.4285714285714284, 5.6e-17),
    ("modulus_grid", 3.0): (0.36383109431700456, 0.0),
    ("modulus_tree", 1.05): (10.352648744770136, 4.0e-12),
    ("modulus_tree", 1.2): (11.41650593634482, 7.6e-16),
    ("modulus_tree", 2.0): (13.333333333333334, 1.5e-16),
    ("modulus_tree", 3.0): (13.725829928345362, 7.2e-09),
    ("upper_path", 1.05): (9.727352193881053, 1.7e-15),
    ("upper_path", 1.2): (7.225715993615276, 8.8e-15),
    ("upper_path", 2.0): (3.0686566454954396, 0.0),
    ("upper_path", 3.0): (1.9916873101409172, 0.0),
    ("upper_grid", 1.05): (4.952714207653386, 1.1e-10),
    ("upper_grid", 1.2): (3.782415011972788, 3.3e-16),
    ("upper_grid", 2.0): (1.8172567675564835, 0.0),
    ("upper_grid", 3.0): (1.2778770468069307, 5.8e-12),
    ("upper_tree", 1.05): (11.100372044849676, 2.1e-15),
    ("upper_tree", 1.2): (8.69648787230398, 1.7e-15),
    ("upper_tree", 2.0): (4.422988125682933, 6.6e-17),
    ("upper_tree", 3.0): (3.2269608278446693, 3.8e-15),
    ("hajlasz_path", 1.05): (3.908153189164743, 3.9e-15),
    ("hajlasz_path", 1.2): (2.922333002813705, 9.6e-16),
    ("hajlasz_path", 2.0): (1.3092128773355285, 1.2e-16),
    ("hajlasz_path", 3.0): (0.8882974224018843, 2.5e-16),
    ("hajlasz_grid", 1.05): (9.676663499277057, 1.4e-15),
    ("hajlasz_grid", 1.2): (7.15117630689968, 4.7e-16),
    ("hajlasz_grid", 2.0): (3.2355937909731582, 7.4e-17),
    ("hajlasz_grid", 3.0): (2.3141877885416684, 7.7e-17),
    ("hajlasz_tree", 1.05): (14.36676557062006, 3.4e-13),
    ("hajlasz_tree", 1.2): (9.98935002958217, 1.6e-14),
    ("hajlasz_tree", 2.0): (3.7667192001395167, 2.7e-16),
    ("hajlasz_tree", 3.0): (2.409238798772342, 5.6e-16),
}


@pytest.mark.parametrize("name,p", sorted(GOLDEN))
def test_golden_optima(name, p):
    want, kkt = GOLDEN[name, p]
    res = PROGRAMS[name](p)
    assert res.certificate["kkt_residual"] <= res.tolerance
    assert res.optimum == pytest.approx(want, rel=1e-9 + 2.0 * kkt, abs=0.0)


def test_hajlasz_sine_path_100():
    # the previous solver took about 27 s on this instance
    n = 100
    res = minimal_hajlasz(path_space(n), np.sin(np.arange(n) / 3.0), 2)
    assert res.certificate["kkt_residual"] <= res.tolerance
    assert res.optimum == pytest.approx(1.454247786083199, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p", [1.05, 2.0, 3.0])
def test_warm_rounds_never_call_lbfgs(p, monkeypatch):
    calls = []
    minimize = scipy.optimize.minimize

    def counting_minimize(*args, **kwargs):
        calls.append(1)
        return minimize(*args, **kwargs)

    subsolve = solver.solve_separable_power
    rounds = []

    def recording_subsolve(*args):
        before = len(calls)
        res = subsolve(*args)
        rounds.append((len(args) > 5 and args[5] is not None, len(calls) - before))
        return res

    monkeypatch.setattr(scipy.optimize, "minimize", counting_minimize)
    monkeypatch.setattr(solver, "solve_separable_power", recording_subsolve)
    for n in (8, 12, 16, 20):
        minimal_hajlasz(path_space(n), ramp(n), p)
    warm = [c for is_warm, c in rounds if is_warm]
    cold = [c for is_warm, c in rounds if not is_warm]
    assert len(cold) == 4 and all(c == 1 for c in cold)
    assert len(warm) >= 8 and not any(warm)


def test_telemetry_survives_json():
    res = minimal_hajlasz(path_space(12), ramp(12), 2.0)
    tele = res.telemetry
    cert = res.certificate
    assert tele["stage"] == "newton"
    assert len(tele["working_set"]) == cert["rounds"]
    assert tele["working_set"][-1] == len(cert["active_set"])
    assert cert["iterations"] == tele["lbfgs_iterations"] + tele["newton_iterations"]
    assert isinstance(cert["iterations"], int)
    assert set(tele["wall_s"]) == {"lbfgs", "newton"}
    assert json.loads(json.dumps(res.to_dict()))["telemetry"] == tele
    lp = modulus(path_space(6), CurveFamily.path_subpaths(6), 1.0)
    assert lp.telemetry["stage"] == "highs" and "highs" in lp.telemetry["wall_s"]


def test_stall_names_stage_and_residual():
    # the first row loads no column, so no x satisfies it
    A = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(SolverStall, match=r"stage 'newton' at kkt_residual inf"):
        solve_separable_power(np.ones(2), A, np.ones(2), 2.0)


@st.composite
def separable_programs(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 8))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    A = np.array([[draw(entry) for _ in range(n)] for _ in range(m)])
    if draw(st.booleans()):  # a column no row loads
        A[:, draw(st.integers(0, n - 1))] = 0.0
    if m > 1 and draw(st.booleans()):  # a duplicate row
        A[draw(st.integers(1, m - 1))] = A[0]
    b = np.array([draw(st.floats(0.1, 5.0)) for _ in range(m)])
    b[~np.any(A > 0, axis=1)] = 0.0  # empty rows stay feasible
    cost = np.array([draw(st.floats(0.2, 5.0)) for _ in range(n)])
    p = draw(st.floats(1.05, 4.0))
    return cost, A, b, p


@settings(max_examples=80, deadline=None)
@given(separable_programs())
def test_random_separable_programs_certify(prog):
    cost, A, b, p = prog
    scale = 1.0 + float(np.max(b))
    cold = solve_separable_power(cost, A, b, p)
    warm = solve_separable_power(cost, A, b, p, solver.DEFAULT_TOL, np.zeros(len(b)))
    gen = constraint_generation(cost, A, b, p)
    for res in (cold, warm, gen):
        assert res.certificate["kkt_residual"] <= res.tolerance
        assert np.all(A @ res.minimizer >= b - res.tolerance * scale)
        assert np.all(res.minimizer >= 0.0)
    assert warm.optimum == pytest.approx(cold.optimum, rel=1e-6, abs=1e-12)
    assert gen.optimum == pytest.approx(cold.optimum, rel=1e-6, abs=1e-12)
    assert math.isfinite(cold.optimum)
