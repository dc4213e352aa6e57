"""Dual Newton against the run it replaced, bit for bit.

The functions below are the solver's dual Newton run and its helpers as
they were before the run computed its invariants once, entered one
errstate and compared candidates by a scalar residual.  They are kept here
as oracles: the same floating-point operations run in the same order, so
the minimizer, every certificate entry and the step count must match them
bit for bit, compared through ``float.hex``.  The oracles run under an
errstate that ignores every floating-point error, which changes no value.
``ref_solve`` is the solve as it was when a stalled run restarted from
L-BFGS-B (``ref_lbfgs_start``); its optimum is the oracle of the restart
from the LP duals.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rikit.solver as solver
from rikit.errors import SolverStall
from rikit.solver import (
    INFEASIBLE,
    NEWTON_BACKTRACK,
    NEWTON_DAMP,
    NEWTON_MAXITER,
    NEWTON_STALL,
    NEWTON_TAIL,
    X_CAP,
)

# -- the reference run ------------------------------------------------------------


def ref_power_primal(lam, A, cost, p):
    a = A.T @ lam
    with np.errstate(over="ignore"):
        x = (np.maximum(a, 0.0) / (p * cost)) ** (1.0 / (p - 1.0))
    return np.minimum(x, X_CAP)


def ref_lbfgs_start(cost, A, b, p):
    from scipy.optimize import minimize

    def neg_dual(lam):
        x = ref_power_primal(lam, A, cost, p)
        with np.errstate(over="ignore"):
            val = lam @ b - np.sum(cost * x ** p * (p - 1.0))
        return (-val if math.isfinite(val) else INFEASIBLE), A @ x - b

    colsum = np.maximum(A, 0.0).sum(axis=0)
    pos = colsum > 0
    lam_scale = float(np.min(cost[pos] / colsum[pos])) * p if np.any(pos) else 1.0
    res = minimize(neg_dual, np.full(len(b), 0.5 * lam_scale), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * len(b),
                   options={"maxiter": 20_000, "ftol": 1e-16, "gtol": 1e-12})
    return np.maximum(res.x, 0.0), int(res.nit)


def ref_dual_newton(lam, A, b, cost, p, tol):
    from scipy.optimize import nnls

    def point(lam):
        x, ax, power, dual = ref_dual_point(lam, A, b, cost, p)
        return lam, x, ax, dual if np.all(x < X_CAP) else -INFEASIBLE, (power, dual)

    def certify(pt):
        lam, x, ax, _, (power, dual) = pt
        return ref_certificate(lam, x, ax, power, dual, b, cost, p)

    pos = np.maximum(A, 0.0)
    with np.errstate(over="ignore"):
        unit = np.sum(pos * (pos / (p * cost)) ** (1.0 / (p - 1.0)), axis=1)
    pt = point(lam)
    lam, x, ax, val, _ = pt
    cert = certify(pt)
    best = (x, cert)
    it = last_gain = 0
    while (it < NEWTON_MAXITER and it - last_gain < NEWTON_STALL
           and best[1]["kkt_residual"] > tol * NEWTON_TAIL):
        it += 1
        g = b - ax
        enter = np.flatnonzero((lam <= 0) & (g > 0))
        moving = lam > 0
        moving[enter[np.argsort(-g[enter], kind="stable")[:A.shape[1]]]] = True
        mass = pos @ x > 0
        dead, model = moving & (unit > 0) & ~mass, moving & (unit > 0) & mass
        step = np.zeros_like(lam)
        with np.errstate(divide="ignore", over="ignore"):
            step[dead] = (g[dead] / unit[dead]) ** (p - 1.0) - lam[dead]
        if model.any():
            a = A.T @ lam
            with np.errstate(divide="ignore", invalid="ignore"):
                d = np.where(a > 0, x / ((p - 1.0) * a), 0.0)
            H = (A[model] * d) @ A[model].T
            mu = NEWTON_DAMP * min(1.0, float(np.linalg.norm(g[model]) / (1 + np.max(b)))) + 1e-10
            H += np.diag(mu * np.diag(H) + 1e-14 * float(np.max(np.diag(H))))
            try:
                L = np.linalg.cholesky(H)
            except np.linalg.LinAlgError:
                break
            y = nnls(L.T, np.linalg.solve(L, H @ lam[model] + g[model]))[0]
            step[model] = y - lam[model]
        slope, t = float(g @ step), 1.0
        for _ in range(NEWTON_BACKTRACK):
            cand = point(np.maximum(lam + t * step, 0.0))
            gain = cand[3] - val
            rounding = 1e-14 * (1.0 + abs(val))
            if gain > rounding and gain >= 1e-4 * t * slope:
                break
            if abs(gain) <= rounding and certify(cand)["kkt_residual"] < cert["kkt_residual"]:
                break
            t *= 0.5 if math.isfinite(gain) else 1e-3
        else:
            break
        lam, x, ax, val, _ = cand
        cert = certify(cand)
        if cert["kkt_residual"] < best[1]["kkt_residual"]:
            best, last_gain = (x, cert), it
    return best[0], best[1], it


def ref_dual_point(lam, A, b, cost, p):
    x = ref_power_primal(lam, A, cost, p)
    with np.errstate(over="ignore", invalid="ignore"):
        power = np.sum(cost * x ** p)
        dual = float(lam @ b - (p - 1.0) * power)
    return x, A @ x, float(power), dual


def ref_certificate(lam, x, ax, power, dual, b, cost, p):
    cert, scale = ref_feasibility(ax - b, lam, b)
    need = np.where(b > 0, np.where(ax > 0, b / np.maximum(ax, 1e-300), INFEASIBLE), 0.0)
    factor = max(1.0, float(np.max(need, initial=1.0)))
    if factor == 1.0:
        f_feas = power
    else:
        with np.errstate(over="ignore"):
            f_feas = (float(np.sum(cost * (factor * x) ** p)) if math.isfinite(factor)
                      else INFEASIBLE)
    gap = max(0.0, f_feas - dual)
    gap_rel = gap / (1.0 + abs(f_feas)) if math.isfinite(f_feas) else INFEASIBLE
    cert["duality_gap"] = gap if math.isfinite(f_feas) else "unbounded"
    cert["kkt_residual"] = max(cert["kkt_residual"], gap_rel)
    return cert


def ref_feasibility(slacks, lam, b):
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    viol = float(np.max(-slacks, initial=0.0))
    comp = float(np.max(np.abs(lam * slacks), initial=0.0))
    return {"slacks": slacks, "duals": lam, "primal_violation": viol,
            "complementarity": comp, "kkt_residual": max(viol, comp) / scale}, scale


def ref_solve(cost, A, b, p, lam):
    """The p > 1 solve with the L-BFGS-B restart, on the reference run: x, cert and counts."""
    lbfgs = newton = 0
    for lam in (lam, None):
        if lam is None:
            lam, lbfgs = ref_lbfgs_start(cost, A, b, p)
        x, cert, its = ref_dual_newton(lam, A, b, cost, p, solver.DEFAULT_TOL)
        newton += its
        if cert["kkt_residual"] <= solver.DEFAULT_TOL:
            break
    return x, cert, lbfgs, newton


def reference(fn, *args):
    with np.errstate(all="ignore"):
        return fn(*args)


# -- comparisons --------------------------------------------------------------------

CERT_KEYS = ["slacks", "duals", "primal_violation", "complementarity", "kkt_residual",
             "duality_gap"]


def bits(v):
    if isinstance(v, np.ndarray):
        return str(v.dtype), v.shape, [float(t).hex() for t in v.ravel()]
    if isinstance(v, float):
        return v.hex()
    return v


def assert_same_run(got, want):
    (x, cert, its), (x_ref, cert_ref, its_ref) = got, want
    assert its == its_ref
    assert bits(x) == bits(x_ref)
    assert list(cert) == list(cert_ref) == CERT_KEYS
    for key in CERT_KEYS:
        assert bits(cert[key]) == bits(cert_ref[key]), key


@st.composite
def programs(draw):
    """A separable power program with the rows dual Newton treats apart."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 9))
    entry = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
    if draw(st.integers(0, 3)) == 0:  # entries of either sign, as capacity's rows have
        entry = st.one_of(entry, st.floats(-2.0, -0.05))
    A = np.array([[draw(entry) for _ in range(n)] for _ in range(m)])
    b = np.array([draw(st.one_of(st.floats(0.1, 5.0), st.sampled_from([0.0, 2.0**-24, 1e-12])))
                  for _ in range(m)])
    if m > 1 and draw(st.booleans()):  # a duplicate row: the damping
        A[draw(st.integers(1, m - 1))] = A[0]
    b[~np.any(A > 0, axis=1)] = 0.0  # a row with no positive entry holds at x = 0
    if draw(st.integers(0, 3)) == 0:  # or no x meets it
        dead = draw(st.integers(0, m - 1))
        A[dead] = -np.abs(A[dead])
        b[dead] = 1.0
    cost = np.array([draw(st.floats(0.2, 5.0)) for _ in range(n)])
    p = draw(st.sampled_from([1.003, 1.05, 1.5, 2.0, 3.0]))
    return cost, A, b, p


@st.composite
def newton_runs(draw):
    """A program and its start: zero duals, warm ones up to 3, or duals up to
    300, which put x at X_CAP near p = 1."""
    cost, A, b, p = draw(programs())
    top = draw(st.sampled_from([0.0, 3.0, 300.0]))
    lam = np.array([draw(st.floats(0.0, top)) for _ in range(len(b))])
    return cost, A, b, p, lam


@settings(max_examples=80, deadline=None)
@given(newton_runs())
@example((np.ones(2), np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0]), 2.0,
          np.zeros(2)))
@example((np.array([1.0, 2.0]), np.array([[1.0, 0.5], [0.0, 0.0], [-1.0, 2.0]]),
          np.array([2.0**-24, 0.0, 0.5]), 1.05, np.array([0.0, 0.0, 40.0])))
@example((np.ones(4), np.array([[0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]]),
          np.array([1.0, 1.0]), 1.003, np.array([5e-324, 1.0])))
def test_dual_newton_matches_the_reference(run):
    cost, A, b, p, lam = run
    args = (lam, A, b, cost, p, solver.DEFAULT_TOL)
    try:
        want = reference(ref_dual_newton, *args)
    except ValueError:
        # a subnormal dual at p near 1: (p - 1) a underflows to 0, the
        # reference's Hessian weight x / ((p - 1) a) is nan and nnls refuses
        # it; the run takes no weight there and certifies the optimum
        cert = solver._dual_newton(*args)[1]
        assert cert["kkt_residual"] <= solver.DEFAULT_TOL
        return
    assert_same_run(solver._dual_newton(*args), want)


def solve_bits(cost, A, b, p, lam):
    """x, certificate, Newton steps and Newton runs of solve_separable_power,
    stalled or not, and whether it ran HiGHS."""
    runs = []
    dual_newton = solver._dual_newton

    def counting(*args):
        runs.append(1)
        return dual_newton(*args)

    with mock.patch.object(solver, "_dual_newton", counting):
        try:
            res = solver.solve_separable_power(cost, A, b, p, solver.DEFAULT_TOL, lam)
        except SolverStall as err:
            res = err.result
    tele = res.telemetry
    cert = {k: v for k, v in res.certificate.items() if k != "iterations"}
    assert res.certificate["iterations"] == tele["newton_iterations"]
    assert tele["stage"] == "newton"
    return res.minimizer, cert, tele["newton_iterations"], len(runs), "highs" in tele["wall_s"]


def lp_start(cost, A, b, p):
    """p times the clipped HiGHS duals of the rows, or None if HiGHS finds no optimum."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_array

    lp = linprog(c=cost, A_ub=-csr_array(A), b_ub=-b, bounds=[(0.0, None)] * A.shape[1],
                 method="highs", options=solver.LP_OPTIONS)
    return p * np.maximum(-np.asarray(lp.ineqlin.marginals), 0.0) if lp.success else None


def test_a_stalled_run_retries_as_the_reference_does():
    # p = 1.003, where x = (a / (p c))^333 under- or overflows, and an
    # infeasible row: the first Newton run stalls, and the restart starts
    # from p times the HiGHS duals, unless HiGHS finds the rows infeasible
    rng = np.random.default_rng(606)
    cases = [(np.ones(2), np.array([[0.0, 0.0], [1.0, 1.0]]), np.ones(2), 2.0)]
    for _ in range(4):
        n, m = 5, 6
        A = rng.uniform(0.05, 3.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.5)
        A[:, 0] += 0.05
        cases.append((rng.uniform(0.2, 2.0, n), A, np.ones(m), 1.003))
    restarted = 0
    for cost, A, b, p in cases:
        lam = np.zeros(len(b))
        x, cert, its, runs, highs = solve_bits(cost, A, b, p, lam)
        x_ref, cert_ref, its_ref = reference(ref_dual_newton, lam, A, b, cost, p,
                                             solver.DEFAULT_TOL)
        assert cert_ref["kkt_residual"] > solver.DEFAULT_TOL and highs
        start = lp_start(cost, A, b, p)
        if start is None:  # infeasible: the first run's stall stands
            assert runs == 1
            assert cert["kkt_residual"] == INFEASIBLE
            assert_same_run((x, cert, its), (x_ref, cert_ref, its_ref))
            continue
        restarted += 1
        assert runs == 2
        x_re, cert_re, its_re = reference(ref_dual_newton, start, A, b, cost, p,
                                          solver.DEFAULT_TOL)
        assert_same_run((x, cert, its), (x_re, cert_re, its_ref + its_re))
        assert cert["kkt_residual"] <= solver.DEFAULT_TOL
        x_old, cert_old = reference(ref_solve, cost, A, b, p, lam)[:2]
        assert cert_old["kkt_residual"] <= solver.DEFAULT_TOL
        assert np.sum(cost * x ** p) == pytest.approx(np.sum(cost * x_old ** p), rel=1e-9)
    assert restarted == 4
