"""Tests of the separable-power solve path: warm-started dual Newton.

The golden optima were computed by the previous solver (cold L-BFGS-B
each round, then one Newton polish) on the benchmark's path, grid and
tree instances.  Each entry keeps that solver's own certified residual:
its optimum is only known to within that residual, so the agreement
asked for is 1e-9 relative plus twice the recorded residual.
"""

import json
import math
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rikit.metric as metric
import rikit.solver as solver
from rikit.errors import SolverStall
from rikit.metric import (
    MMS,
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


# the fewest path points whose Hajlasz program (one row per pair) holds more
# than solver.ALL_ROWS_MAX entries, so that it takes constraint-generation rounds
PAST_ALL_ROWS = 81


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


def test_past_all_rows_is_the_first_path_past_the_size_rule():
    def entries(n):
        return n * (n - 1) // 2 * n
    assert entries(PAST_ALL_ROWS - 1) <= solver.ALL_ROWS_MAX < entries(PAST_ALL_ROWS)


def hajlasz_ramp(n):
    return lambda p: minimal_hajlasz(path_space(n), ramp(n), p)


# the programs at the bench's sizes: the Hajlasz ladder, modulus of the
# subpaths of 12 on a 30-point path and the upper-gradient instances
ONE_RUN = {**{f"hajlasz_path{n}": hajlasz_ramp(n) for n in (8, 12, 16, 20)},
           **{name: PROGRAMS[name]
              for name in ("modulus_path", "upper_path", "upper_grid", "upper_tree")}}


@pytest.mark.parametrize("p", [1.05, 2.0, 3.0])
@pytest.mark.parametrize("name", sorted(ONE_RUN))
def test_small_programs_take_every_row_in_one_run(name, p, monkeypatch):
    subsolve = solver.solve_separable_power
    calls = []

    def recording_subsolve(*args):
        calls.append(args[1].shape[0])
        return subsolve(*args)

    monkeypatch.setattr(solver, "solve_separable_power", recording_subsolve)
    cert = ONE_RUN[name](p).certificate
    m = len(cert["slacks"])
    assert calls == [m]
    assert cert["rounds"] == 1 and cert["active_set"] == list(range(m))


@pytest.mark.parametrize("name,p", sorted(GOLDEN))
def test_rounds_agree_with_one_run(name, p, monkeypatch):
    one_run = PROGRAMS[name](p)
    monkeypatch.setattr(solver, "ALL_ROWS_MAX", 0)
    rounds = PROGRAMS[name](p)
    assert one_run.certificate["rounds"] == 1 and rounds.certificate["rounds"] >= 2
    assert rounds.certificate["kkt_residual"] <= rounds.tolerance
    assert rounds.optimum == pytest.approx(one_run.optimum, rel=1e-9, abs=0.0)


def test_hajlasz_sine_path_100():
    # the previous solver took about 27 s on this instance
    n = 100
    res = minimal_hajlasz(path_space(n), np.sin(np.arange(n) / 3.0), 2)
    assert res.certificate["kkt_residual"] <= res.tolerance
    assert res.optimum == pytest.approx(1.454247786083199, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("p", [1.05, 2.0, 3.0])
def test_warm_rounds_never_call_lbfgs(p, monkeypatch):
    # at p > 1 HiGHS runs only where a stalled Newton run restarts
    calls = []
    solve_lp_min = solver._solve_lp_min

    def counting_lp(*args):
        calls.append(1)
        return solve_lp_min(*args)

    subsolve = solver.solve_separable_power
    rounds = []

    def recording_subsolve(*args):
        before = len(calls)
        res = subsolve(*args)
        rounds.append((len(args) > 5 and args[5] is not None, len(calls) - before))
        return res

    monkeypatch.setattr(solver, "_solve_lp_min", counting_lp)
    monkeypatch.setattr(solver, "solve_separable_power", recording_subsolve)
    # a path past the size rule: smaller programs take every row in one run
    minimal_hajlasz(path_space(PAST_ALL_ROWS), ramp(PAST_ALL_ROWS), p)
    # every round, the first too, starts Newton from given duals
    assert len(rounds) >= 12 and all(given for given, _ in rounds)
    assert not any(c for _, c in rounds)


def test_rounds_past_the_size_rule_keep_their_working_sets():
    # each round adds the most violated row, then the rows violated at least
    # half as much in ascending index: these sizes, round by round
    n = 150
    res = minimal_hajlasz(path_space(n), np.sin(np.arange(n) / 3.0), 2)
    sizes, active = res.telemetry["working_set"], res.certificate["active_set"]
    assert sizes == [1, 4097, 4104, 4108, 4174, 4189, 4194, 4196, 4197, 4198]
    assert len(set(active)) == len(active) == sizes[-1]
    for lo, hi in zip(sizes[:-1], sizes[1:]):
        assert active[lo + 1:hi] == sorted(active[lo + 1:hi])
    assert res.optimum == pytest.approx(float.fromhex("0x1.c6dc980a20344p+0"), rel=1e-12)


def test_telemetry_survives_json():
    res = minimal_hajlasz(path_space(12), ramp(12), 2.0)
    tele = res.telemetry
    cert = res.certificate
    assert tele["stage"] == "newton"
    assert len(tele["working_set"]) == cert["rounds"]
    assert tele["working_set"][-1] == len(cert["active_set"])
    assert cert["iterations"] == tele["newton_iterations"]
    assert isinstance(cert["iterations"], int)
    assert set(tele["wall_s"]) == {"newton"}  # no "highs": no restart
    assert json.loads(json.dumps(res.to_dict()))["telemetry"] == tele
    lp = modulus(path_space(6), CurveFamily.path_subpaths(6), 1.0)
    assert lp.telemetry["stage"] == "highs" and "highs" in lp.telemetry["wall_s"]


def test_newton_without_progress_stops_early(monkeypatch):
    # criterion 06 at p = 1.003: x = (a/pc)^338 underflows, the residual
    # stays inf, and Newton used to spend all its iterations before the
    # cold retry; replay the criterion's draws up to that instance
    rng = np.random.default_rng(606060)

    def random_space(n):
        pts = rng.uniform(0, 3, size=(n, 2))
        d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
        return MMS(d, rng.uniform(0.2, 2.0, n))

    for _ in range(100):
        s = random_space(int(rng.integers(3, 7)))
        rng.integers(2, 5), rng.permutation(s.n), rng.uniform(1.2, 4.0)
    for _ in range(51):
        s = random_space(5)
        all_curves = [Curve((i, j)) for i in range(5) for j in range(5) if i != j]
        rng.shuffle(all_curves)
        k = int(rng.integers(1, len(all_curves) - 3))
        p = float(rng.uniform(1.0, 3.0))
    assert p == pytest.approx(1.003, abs=1e-3)
    runs = []
    newton = solver._dual_newton

    def counting_newton(*args):
        out = newton(*args)
        runs.append(out[2])
        return out

    monkeypatch.setattr(solver, "_dual_newton", counting_newton)
    small = modulus(s, CurveFamily(all_curves[:k]), p)
    big = modulus(s, CurveFamily(all_curves[:k + 3]), p)
    assert max(runs) <= 20
    assert small.optimum <= big.optimum + 1e-7


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


# -- p = 1 as one LP, and one evaluation per dual point ---------------------------------


def _walks(n):
    return st.lists(st.integers(0, n - 1), min_size=2, max_size=5).filter(
        lambda v: all(a != b for a, b in zip(v, v[1:])))


@st.composite
def lp_programs(draw):
    """A p = 1 program: random rows, or a modulus or Hajlasz program's rows."""
    kind = draw(st.sampled_from(["rows", "modulus", "hajlasz"]))
    if kind == "rows":
        cost, A, b, _ = draw(separable_programs())
        return lambda: metric.constraint_generation(cost, A, b, 1.0)
    n = draw(st.integers(3, 9))
    weights = np.array([draw(st.floats(0.2, 3.0)) for _ in range(n)])
    space = draw(st.sampled_from([path_space(n, draw(st.floats(0.1, 2.0)), weights),
                                  grid_space(3, 3), tree_space(2, 2)]))
    if kind == "modulus":
        curves = draw(st.lists(_walks(space.n), min_size=1, max_size=12))
        return lambda: modulus(space, CurveFamily([Curve(tuple(c)) for c in curves]), 1.0)
    u = np.array([draw(st.floats(-5.0, 5.0)) for _ in range(space.n)])
    return lambda: minimal_hajlasz(space, u, 1.0)


@settings(max_examples=120, deadline=None)
@given(lp_programs())
@example(lambda: minimal_hajlasz(path_space(3), [0, 0, 2**-24], 1.0))
def test_p1_is_one_lp_over_every_row(program):
    seen = []

    def recording(cost, rows, b, p, tol=solver.DEFAULT_TOL):
        seen.append((np.asarray(cost, dtype=float), rows, b))
        return constraint_generation(cost, rows, b, p, tol)

    with mock.patch.object(metric, "constraint_generation", recording):
        res = program()
    (cost, A, b), = seen
    assume(np.any(b > 0))  # else the trivial branch: no LP at all
    m = len(b)
    lp = scipy.optimize.linprog(cost, A_ub=-A, b_ub=-b, bounds=[(0.0, None)] * A.shape[1],
                                method="highs", options=solver.LP_OPTIONS)
    cert = res.certificate
    assert cert["rounds"] == 1 and cert["active_set"] == list(range(m))
    assert len(cert["slacks"]) == len(cert["duals"]) == m
    assert np.array_equal(cert["slacks"], A @ res.minimizer - b)
    assert np.all(cert["duals"] >= 0.0)
    assert cert["kkt_residual"] <= res.tolerance
    assert res.optimum == pytest.approx(lp.fun, rel=1e-9, abs=0.0)


@st.composite
def raw_lps(draw):
    """min cost @ x s.t. A x >= b, x >= 0, up to the size of a bench program
    (30 rows, 12 columns), so that presolve leaves HiGHS a simplex to run:
    entries of either sign and zeros, rows that load no column, zero
    entries of b and rows no x >= 0 meets."""
    n, m = draw(st.integers(1, 12)), draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    zeros, negative = draw(st.floats(0.0, 0.9)), draw(st.floats(0.0, 0.5))
    A = rng.uniform(0.05, 3.0, (m, n)) * np.where(rng.random((m, n)) < negative, -1.0, 1.0)
    A[rng.random((m, n)) < zeros] = 0.0
    b = np.where(rng.random(m) < zeros, 0.0, rng.uniform(-2.0, 5.0, m))
    if draw(st.booleans()):  # a row that loads no column
        A[draw(st.integers(0, m - 1))] = 0.0
    b[~np.any(A > 0, axis=1)] = 0.0  # else most draws would be infeasible
    cost = rng.uniform(0.0, 5.0, n)
    if draw(st.integers(0, 3)) == 0:  # a row no x >= 0 meets
        i = draw(st.integers(0, m - 1))
        A[i], b[i] = -np.abs(A[i]), draw(st.floats(0.1, 5.0))
    if draw(st.integers(0, 3)) == 0:  # a cost that may leave the program unbounded
        cost[draw(st.integers(0, n - 1))] = draw(st.floats(-1.0, 0.0))
    return cost, A, b


@settings(max_examples=200, deadline=None)
@given(raw_lps())
@example((np.ones(2), np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2)))
@example((np.array([-1.0, 1.0]), np.array([[1.0, 1.0]]), np.ones(1)))
@example((np.ones(2), np.array([[1.0, 0.5]]), np.array([2.0**-24])))  # below 1e-7
def test_lp_matches_linprog_bit_for_bit(lp):
    # HiGHS gets linprog's model and options: the same x, duals and
    # optimum, and where one side fails, so does the other
    cost, A, b = lp
    try:
        res = solver._solve_lp_min(cost, A, b, solver.DEFAULT_TOL)
    except SolverStall as err:
        res = err.result
    ref = scipy.optimize.linprog(cost, A_ub=-A, b_ub=-b, bounds=[(0.0, None)] * len(cost),
                                 method="highs", options=solver.LP_OPTIONS)
    assert math.isfinite(res.optimum) == ref.success, ref.message
    if ref.success:
        assert _same_bits(res.minimizer, ref.x)
        assert _same_bits(res.certificate["duals"], -ref.ineqlin.marginals)
        assert _same_bits(res.optimum, float(cost @ ref.x))


def test_highs_takes_every_option():
    # the binding reports a rejected option by its return value alone
    from scipy.optimize._highspy import _core as highs

    h = highs._Highs()
    for key, value in solver._HIGHS_OPTIONS.items():
        assert h.setOptionValue(key, value) == highs.HighsStatus.kOk, key
        assert h.getOptionValue(key)[1] == value, key


@pytest.mark.parametrize("where", ["cost", "A", "b"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_lp_rejects_non_finite_input_before_highs(where, bad, monkeypatch):
    from scipy.optimize._highspy import _core as highs

    def no_highs(*args):
        raise AssertionError("HiGHS ran")

    monkeypatch.setattr(highs, "_Highs", no_highs)
    lp = {"cost": np.ones(2), "A": np.array([[1.0, 2.0], [0.0, 1.0]]), "b": np.ones(2)}
    lp[where].flat[-1] = bad
    with pytest.raises(ValueError, match="finite"):
        solver._solve_lp_min(lp["cost"], lp["A"], lp["b"], solver.DEFAULT_TOL)


@pytest.mark.parametrize("cost, A, b, status", [
    # a row that loads no column; an unbounded cost; an entry HiGHS refuses
    (np.ones(2), np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2), "Infeasible"),
    (np.array([-1.0, 1.0]), np.array([[1.0, 1.0]]), np.ones(1), "Unbounded"),
    (np.ones(2), np.array([[1e16, 1.0]]), np.ones(1), "Model error"),
])
def test_lp_failure_names_the_model_status(cost, A, b, status):
    with pytest.raises(SolverStall, match=f"LP failed: HiGHS model status '{status}'") as err:
        solver._solve_lp_min(cost, A, b, solver.DEFAULT_TOL)
    res = err.value.result
    assert res.optimum == math.inf and res.certificate["status"] == status
    assert not res.minimizer.any() and not res.certificate["duals"].any()
    assert res.certificate["kkt_residual"] == math.inf
    assert "highs" in res.telemetry["wall_s"]


def _same_bits(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, float):
        return isinstance(b, float) and a.hex() == b.hex()
    return a == b


@settings(max_examples=80, deadline=None)
@given(separable_programs(), st.integers(0, 2**32 - 1))
def test_newton_certificates_match_a_fresh_certificate(prog, seed):
    # the certificate takes x, A @ x, sum c x^p and the dual value from the
    # dual point Newton evaluated; recomputed from (x, lam) alone, every
    # entry has the same bits
    cost, A, b, p = prog
    built = []
    certificate = solver._certificate

    def recording(lam, x, *rest):
        cert = certificate(lam, x, *rest)
        built.append((lam, x, cert))
        return cert

    starts = [np.zeros(len(b)), np.random.default_rng(seed).uniform(0.0, 3.0, len(b))]
    with mock.patch.object(solver, "_certificate", recording):
        for lam in starts:
            solver._dual_newton(lam, A, b, cost, p, solver.DEFAULT_TOL)
    assert len(built) >= 2
    for lam, x, cert in built:
        fresh = solver._power_certificate(x, lam, A, b, cost, p)
        assert cert.keys() == fresh.keys()
        for key in cert:
            assert _same_bits(cert[key], fresh[key]), key


@pytest.mark.parametrize("p", [1.05, 2.0, 3.0])
def test_hajlasz_paths_never_call_minimize(p, monkeypatch):
    # no Newton run stalls, so none restarts from the HiGHS duals
    def no_lp(*args):
        raise AssertionError("a stalled Newton run restarted")

    monkeypatch.setattr(solver, "_solve_lp_min", no_lp)
    for n in range(8, 21):
        for u in (ramp(n), np.sin(np.arange(n) / 3.0), np.cumsum(wave(n))):
            res = minimal_hajlasz(path_space(n), u, p)
            assert "highs" not in res.telemetry["wall_s"]
            assert res.certificate["iterations"] == res.telemetry["newton_iterations"]
            assert res.certificate["kkt_residual"] <= res.tolerance
