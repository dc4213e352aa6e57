"""Convex program machinery with KKT certificates.

Two program classes cover all solver-backed operations:

* separable power programs  min sum_i c_i x_i^p  s.t.  A x >= b, x >= 0,
  solved in the dual (closed-form primal recovery per dual iterate) by
  projected dual Newton steps, warm-started from the previous round's
  duals under constraint generation; a cold start first takes L-BFGS-B to
  where Newton can begin; the p = 1 corner is a linear program and is
  handed to HiGHS, which returns a vertex optimum and exact duals;

* norm-sum programs  min ||u||_p + ||g||_p  s.t.  A z >= b, z >= lb,
  solved with SLSQP on a mollified objective (p > 1) or as a linear
  program (p = 1); duals are recovered from the active set by nonnegative
  least squares.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverStall

DEFAULT_TOL = 1e-8
LBFGS_MAXITER = 20_000
NEWTON_MAXITER = 200
NEWTON_BACKTRACK = 60
NEWTON_TAIL = 1e-4
NEWTON_DAMP = 1e-6
INFEASIBLE = math.inf


@dataclass
class SolveResult:
    """Optimum, minimizer and a per-constraint certificate."""

    optimum: float
    minimizer: np.ndarray
    certificate: dict = field(default_factory=dict)
    tolerance: float = DEFAULT_TOL
    telemetry: dict = field(default_factory=dict)

    def to_dict(self):
        cert = {k: [float(x) for x in v] if isinstance(v, np.ndarray) else v
                for k, v in self.certificate.items()}
        return {"optimum": float(self.optimum),
                "minimizer": [float(x) for x in self.minimizer],
                "certificate": cert, "tolerance": self.tolerance,
                "telemetry": self.telemetry}


X_CAP = 1e30  # transient dual iterates may map far outside the feasible range
# for p near 1; the cap keeps gradients finite and is inactive at an optimum


def _power_primal(lam, A, cost, p):
    """Closed-form minimizer of the Lagrangian for given duals."""
    a = A.T @ lam
    with np.errstate(over="ignore"):
        x = (np.maximum(a, 0.0) / (p * cost)) ** (1.0 / (p - 1.0))
    return np.minimum(x, X_CAP)


def solve_separable_power(cost, A, b, p, tol=DEFAULT_TOL, lam0=None):
    """min sum_i cost_i x_i^p over x >= 0 with A x >= b (A >= 0, b >= 0).

    For p > 1, dual Newton (``_dual_newton``) maximizes the concave dual
    from the warm duals ``lam0`` (one per row) when given.  A cold start,
    or a warm one that stalls, first takes L-BFGS-B from a bounded point
    to where Newton can begin.  ``iterations`` in the certificate counts
    both kinds; ``telemetry`` splits them, names the stage that met tol
    and times each stage.  p = 1 is a linear program solved by HiGHS.
    Raises SolverStall when the residual (which includes the relative
    duality gap) exceeds tol.
    """
    cost, A, b = (np.asarray(v, dtype=float) for v in (cost, A, b))
    m, n = A.shape
    if m == 0:
        x = np.zeros(n)
        return SolveResult(0.0, x, _power_certificate(x, np.zeros(0), A, b, cost, p), tol,
                           _telemetry("trivial", [0]))
    if p == 1.0:
        return _solve_lp_min(cost, A, b, tol)
    tele = _telemetry("newton", [m])
    starts = [None] if lam0 is None else [np.maximum(np.asarray(lam0, dtype=float), 0.0), None]
    for lam in starts:  # None: a cold start
        if lam is None:
            lam, tele["lbfgs_iterations"] = _timed(tele, "lbfgs", _lbfgs_start, cost, A, b, p)
        x, cert, its = _timed(tele, "newton", _dual_newton, lam, A, b, cost, p, tol)
        tele["newton_iterations"] += its
        if cert["kkt_residual"] <= tol:
            break
    return _finish(SolveResult(float(np.sum(cost * x ** p)), x, cert, tol, tele))


def _telemetry(stage, working_set):
    return {"stage": stage, "lbfgs_iterations": 0, "newton_iterations": 0,
            "working_set": list(working_set), "wall_s": {}}


def _timed(tele, stage, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    tele["wall_s"][stage] = tele["wall_s"].get(stage, 0.0) + time.perf_counter() - t0
    return out


def _finish(result):
    """Count the iterations; return the result, or raise SolverStall."""
    tele = result.telemetry
    result.certificate["iterations"] = tele["lbfgs_iterations"] + tele["newton_iterations"]
    kkt = result.certificate["kkt_residual"]
    if kkt > result.tolerance:
        raise SolverStall(result, f"solver stalled in stage {result.telemetry['stage']!r} "
                                  f"at kkt_residual {kkt:.3g} > tol {result.tolerance:g}")
    return result


def _lbfgs_start(cost, A, b, p):
    """L-BFGS-B dual ascent from a bounded start: Newton's initializer."""
    from scipy.optimize import minimize

    def neg_dual(lam):
        x = _power_primal(lam, A, cost, p)
        with np.errstate(over="ignore"):
            val = lam @ b - np.sum(cost * x ** p * (p - 1.0))
        return (-val if math.isfinite(val) else INFEASIBLE), A @ x - b

    # start inside the region where the closed-form primal stays bounded:
    # with lam0 below p * min(cost / colsum), every ratio a_i/(p c_i) <= 1/2,
    # which matters enormously for p near 1 (the exponent 1/(p-1) blows up)
    colsum = A.sum(axis=0)
    pos = colsum > 0
    lam_scale = float(np.min(cost[pos] / colsum[pos])) * p if np.any(pos) else 1.0
    res = minimize(neg_dual, np.full(len(b), 0.5 * lam_scale), jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * len(b),
                   options={"maxiter": LBFGS_MAXITER, "ftol": 1e-16, "gtol": 1e-12})
    return np.maximum(res.x, 0.0), int(res.nit)


def _dual_newton(lam, A, b, cost, p, tol):
    """Projected Newton ascent on the dual from duals lam >= 0.

    Each step maximizes the dual's second-order model over lam >= 0 (an
    NNLS problem on the Cholesky factor of the negated Hessian
    A diag(x/((p-1)a)) A^T, damped Levenberg-Marquardt style because
    duplicate rows make it singular); violated rows whose support holds
    no primal mass jump to their one-row optimum instead.  An Armijo
    search on the dual value follows; where that value is flat to
    rounding a step counts only if it halves the certificate's residual.
    Convergence is quadratic, so the run goes on past tol, to
    tol * NEWTON_TAIL or until no step helps.  Returns the least-residual
    primal, its certificate and the step count.
    """
    from scipy.optimize import nnls

    def point(lam):
        x = _power_primal(lam, A, cost, p)
        with np.errstate(over="ignore", invalid="ignore"):
            val = float(lam @ b - (p - 1.0) * np.sum(cost * x ** p))
        # the Lagrangian at a capped x is no dual value
        return lam, x, val if np.all(x < X_CAP) else -INFEASIBLE, A @ x

    # A_i x at the duals e_i: row i alone is met at lam_i = (b_i/unit_i)^(p-1)
    with np.errstate(over="ignore"):
        unit = np.sum(A * (A / (p * cost)) ** (1.0 / (p - 1.0)), axis=1)
    lam, x, val, ax = point(lam)
    cert = _power_certificate(x, lam, A, b, cost, p)
    best = (x, cert)
    it = 0
    while it < NEWTON_MAXITER and best[1]["kkt_residual"] > tol * NEWTON_TAIL:
        it += 1
        g = b - ax
        # the step moves the positive duals and the n (the model's rank)
        # worst-violated rows at 0; a row that loads no column moves no x
        enter = np.flatnonzero((lam <= 0) & (g > 0))
        moving = lam > 0
        moving[enter[np.argsort(-g[enter], kind="stable")[:A.shape[1]]]] = True
        dead, model = moving & (unit > 0) & (ax <= 0), moving & (unit > 0) & (ax > 0)
        step = np.zeros_like(lam)
        with np.errstate(divide="ignore", over="ignore"):
            step[dead] = (b[dead] / unit[dead]) ** (p - 1.0) - lam[dead]
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
            # max g.s - s.H.s/2 over lam + s >= 0, as an NNLS in y = lam + s
            y = nnls(L.T, np.linalg.solve(L, H @ lam[model] + g[model]))[0]
            step[model] = y - lam[model]
        slope, t = float(g @ step), 1.0
        for _ in range(NEWTON_BACKTRACK):
            cand = point(np.maximum(lam + t * step, 0.0))
            gain = cand[2] - val
            rounding = 1e-14 * (1.0 + abs(val))
            if gain > rounding and gain >= 1e-4 * t * slope:
                break
            if abs(gain) <= rounding and _power_certificate(
                    cand[1], cand[0], A, b, cost, p)["kkt_residual"] < 0.5 * cert["kkt_residual"]:
                break
            t *= 0.5 if math.isfinite(gain) else 1e-3  # overflow: far shorter
        else:
            break
        lam, x, val, ax = cand
        cert = _power_certificate(x, lam, A, b, cost, p)
        if cert["kkt_residual"] < best[1]["kkt_residual"]:
            best = (x, cert)
    return best[0], best[1], it


def _power_certificate(x, lam, A, b, cost, p):
    """KKT-style certificate built on the duality gap.

    The gap between the best feasible rescaling of x and the exact dual
    value at lam bounds the suboptimality by weak duality; it is robust
    where coordinate stationarity is noise-amplified (p near 1).
    """
    ax = A @ x
    cert, scale = _feasibility(ax - b, lam, b)
    need = np.where(b > 0, np.where(ax > 0, b / np.maximum(ax, 1e-300), INFEASIBLE), 0.0)
    factor = max(1.0, float(np.max(need, initial=1.0)))
    f_feas = float(np.sum(cost * (factor * x) ** p)) if math.isfinite(factor) else INFEASIBLE
    if p > 1.0:
        x_dual = _power_primal(lam, A, cost, p)
        dual_val = float(lam @ b - (p - 1.0) * np.sum(cost * x_dual ** p))
    else:
        dual_val = float(lam @ b)
    gap = max(0.0, f_feas - dual_val)
    gap_rel = gap / (1.0 + abs(f_feas)) if math.isfinite(f_feas) else INFEASIBLE
    cert["duality_gap"] = gap if math.isfinite(f_feas) else "unbounded"
    cert["kkt_residual"] = max(cert["kkt_residual"], gap_rel)
    return cert


def _feasibility(slacks, lam, b):
    """Slacks, duals, violation, complementarity and their residual; scale."""
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    viol = float(np.max(-slacks, initial=0.0))
    comp = float(np.max(np.abs(lam * slacks), initial=0.0))
    return {"slacks": slacks, "duals": lam, "primal_violation": viol,
            "complementarity": comp, "kkt_residual": max(viol, comp) / scale}, scale


def _solve_lp_min(cost, A, b, tol):
    """min cost @ x s.t. A x >= b, x >= 0 (vertex optimum via HiGHS)."""
    from scipy.optimize import linprog
    m, n = A.shape
    tele = _telemetry("highs", [m])
    res = _timed(tele, "highs", lambda: linprog(c=cost, A_ub=-A, b_ub=-b,
                                                 bounds=[(0.0, None)] * n, method="highs"))
    if not res.success:
        partial = SolveResult(INFEASIBLE, np.zeros(n), {"status": res.message}, tol)
        raise SolverStall(partial, f"LP failed: {res.message}")
    x = np.asarray(res.x)
    lam = np.asarray(res.ineqlin.marginals) * -1.0  # >=-form multipliers
    slacks = A @ x - b
    cert, scale = _feasibility(slacks, lam, b)
    stat = float(np.max(A.T @ lam - cost, initial=0.0))
    degenerate = bool(np.any((np.abs(slacks) <= 1e-10) & (np.abs(lam) <= 1e-10)))
    cert.update(stationarity=stat, vertex=True, dual_degenerate=degenerate,
                kkt_residual=max(cert["kkt_residual"], stat / scale))
    return _finish(SolveResult(float(cost @ x), x, cert, tol, tele))


def constraint_generation(cost, rows, b, p, tol=DEFAULT_TOL):
    """Solve the separable power program by generating violated rows.

    ``rows`` is the full (possibly large) constraint matrix.  The working
    set starts from the most-violated row at x = 0; each round solves it
    and adds the most-violated row and every row violated by at least
    half as much (ties to the lowest index).  The first round starts
    cold, each later one warm from the last duals, zeros for new rows.
    The certificate carries the last solve's ``duality_gap`` (zero duals
    on the other rows extend its dual to the full program), the summed
    ``iterations`` and ``rounds``; ``telemetry`` sums the rounds' and
    lists the working-set size per round.
    """
    rows, b = np.asarray(rows, dtype=float), np.asarray(b, dtype=float)
    m, n = rows.shape
    if not np.any(b > 0):
        x = np.zeros(n)
        return SolveResult(0.0, x, _power_certificate(x, np.zeros(m), rows, b, np.asarray(cost),
                                                      p), tol, _telemetry("trivial", []))
    active = [int(np.argmax(b))]
    in_active = set(active)
    lam = None
    tele = _telemetry("", [])
    scale = 1.0 + float(np.max(np.abs(b)))
    for rounds in range(1, m + 2):
        sub = solve_separable_power(cost, rows[active], b[active], p, tol, lam)
        tele["stage"] = sub.telemetry["stage"]
        tele["working_set"] += sub.telemetry["working_set"]
        for k in ("lbfgs_iterations", "newton_iterations"):
            tele[k] += sub.telemetry[k]
        for stage, secs in sub.telemetry["wall_s"].items():
            tele["wall_s"][stage] = tele["wall_s"].get(stage, 0.0) + secs
        x = sub.minimizer
        viol = b - rows @ x
        worst = int(np.argmax(viol))
        if viol[worst] <= tol * scale or worst in in_active:
            break
        # most violated first, then every row violated at a comparable level
        batch = np.nonzero(viol >= 0.5 * viol[worst])[0]
        new = [worst] + [int(i) for i in batch if int(i) != worst and int(i) not in in_active]
        active += new
        in_active.update(new)
        lam = np.concatenate((sub.certificate["duals"], np.zeros(len(new))))
    duals_full = np.zeros(m)
    duals_full[active] = sub.certificate["duals"]
    cert, _ = _feasibility(rows @ x - b, duals_full, b)
    cert.update(active_set=list(map(int, active)), rounds=rounds)
    cert.update({k: sub.certificate[k]
                 for k in ("duality_gap", "vertex", "dual_degenerate")
                 if k in sub.certificate})
    return _finish(SolveResult(float(np.sum(np.asarray(cost) * x ** p)) if p > 1
                               else float(np.asarray(cost) @ x), x, cert, tol, tele))


def solve_norm_sum(weights, A, b, lb, p, split, tol=1e-9):
    """min ||z[:split]||_{p,w} + ||z[split:]||_{p,w}  s.t.  A z >= b, z >= lb.

    Weighted p-norms with the weight vector split accordingly.  Returns a
    SolveResult whose optimum is the exact (unmollified) objective at the
    solver's solution.
    """
    from scipy.optimize import linprog, minimize
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    lb = np.asarray(lb, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(lb)
    w_u = w[:split]
    w_g = w[split:]

    if p == 1.0:
        cost = np.concatenate((w_u, w_g))
        res = linprog(c=cost, A_ub=-A, b_ub=-b, bounds=[(float(l), None) for l in lb],
                      method="highs")
        if not res.success:
            raise SolverStall(SolveResult(INFEASIBLE, lb.copy(), {"status": res.message}, tol),
                              f"LP failed: {res.message}")
        z = np.asarray(res.x)
        lam = -np.asarray(res.ineqlin.marginals)
        return _norm_sum_result(z, lam, A, b, lb, w_u, w_g, p, split, tol,
                                extra={"vertex": True})

    eps = 1e-12

    def objective(z):
        su = np.sum(w_u * np.maximum(z[:split], 0.0) ** p) + eps
        sg = np.sum(w_g * np.maximum(z[split:], 0.0) ** p) + eps
        fu, fg = su ** (1.0 / p), sg ** (1.0 / p)
        grad = np.empty_like(z)
        grad[:split] = w_u * np.maximum(z[:split], 0.0) ** (p - 1.0) * fu ** (1.0 - p)
        grad[split:] = w_g * np.maximum(z[split:], 0.0) ** (p - 1.0) * fg ** (1.0 - p)
        return fu + fg, grad

    cons = []
    if len(b):
        cons.append({"type": "ineq", "fun": lambda z: A @ z - b, "jac": lambda z: A})
    z0 = np.maximum(lb, 0.0) + 1e-3
    res = minimize(objective, z0, jac=True, method="SLSQP",
                   bounds=[(float(l), None) for l in lb], constraints=cons,
                   options={"maxiter": 800, "ftol": 1e-14})
    z = np.maximum(np.asarray(res.x), lb)
    lam = _recover_duals(z, A, b, lb, objective)
    result = _norm_sum_result(z, lam, A, b, lb, w_u, w_g, p, split, tol)
    feas_tol = 1e-6 * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    if result.certificate["primal_violation"] > feas_tol:
        raise SolverStall(result, "norm-sum program did not reach feasibility")
    return result


def _recover_duals(z, A, b, lb, objective):
    """Nonnegative least-squares multipliers on the active rows."""
    from scipy.optimize import nnls
    if len(b) == 0:
        return np.zeros(0)
    _, grad = objective(z)
    slacks = A @ z - b
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    act = np.where(slacks <= 1e-6 * scale)[0]
    lam = np.zeros(len(b))
    if len(act) == 0:
        return lam
    free = z > lb + 1e-9
    if not np.any(free):
        return lam
    try:
        sol, _ = nnls(A[act][:, free].T, grad[free])
        lam[act] = sol
    except RuntimeError:  # nnls iteration cap: keep the zero multipliers
        pass
    return lam


def _norm_sum_result(z, lam, A, b, lb, w_u, w_g, p, split, tol, extra=None):
    nu = float(np.sum(w_u * np.abs(z[:split]) ** p)) ** (1.0 / p)
    ng = float(np.sum(w_g * np.abs(z[split:]) ** p)) ** (1.0 / p) if split < len(z) else 0.0
    slacks = A @ z - b if len(b) else np.zeros(0)
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    cert = {"slacks": slacks, "duals": lam,
            "primal_violation": float(np.max(-slacks, initial=0.0)),
            "complementarity": float(np.max(np.abs(lam * slacks), initial=0.0)) if len(b) else 0.0,
            "kkt_residual": float(np.max(-slacks, initial=0.0)) / scale, "norm_parts": [nu, ng]}
    if extra:
        cert.update(extra)
    return SolveResult(nu + ng, z, cert, tol)
