"""Convex program machinery with KKT certificates.

Two program classes cover all solver-backed operations:

* separable power programs  min sum_i c_i x_i^p  s.t.  A x >= b, x >= 0,
  solved in the dual (closed-form primal recovery per dual iterate) by
  L-BFGS-B ascent, then one damped dual Newton polish when the duality-gap
  certificate misses tolerance; the p = 1 corner is a linear program and
  is handed to HiGHS, which returns a vertex optimum and exact duals;

* norm-sum programs  min ||u||_p + ||g||_p  s.t.  A z >= b, z >= lb,
  solved with SLSQP on a mollified objective (p > 1) or as a linear
  program (p = 1); duals are recovered from the active set by nonnegative
  least squares.

Constraint generation adds the most-violated row first and re-solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverStall

DEFAULT_TOL = 1e-8
LBFGS_MAXITER = 20_000
INFEASIBLE = math.inf


@dataclass
class SolveResult:
    """Optimum, minimizer and a per-constraint certificate."""

    optimum: float
    minimizer: np.ndarray
    certificate: dict = field(default_factory=dict)
    tolerance: float = DEFAULT_TOL

    def to_dict(self):
        cert = {}
        for k, v in self.certificate.items():
            if isinstance(v, np.ndarray):
                cert[k] = [float(x) for x in v]
            else:
                cert[k] = v
        return {
            "optimum": float(self.optimum),
            "minimizer": [float(x) for x in self.minimizer],
            "certificate": cert,
            "tolerance": self.tolerance,
        }


X_CAP = 1e30  # transient dual iterates may map far outside the feasible
# range for p near 1; capping keeps gradients finite and is inactive at
# any converged optimum of the instances this library builds


def _power_primal(lam, A, cost, p):
    """Closed-form minimizer of the Lagrangian for given duals."""
    a = A.T @ lam
    with np.errstate(over="ignore"):
        x = (np.maximum(a, 0.0) / (p * cost)) ** (1.0 / (p - 1.0))
    return np.minimum(x, X_CAP)


def solve_separable_power(cost, A, b, p, tol=DEFAULT_TOL):
    """min sum_i cost_i x_i^p over x >= 0 with A x >= b (A >= 0, b >= 0).

    For p > 1 the dual is maximized by L-BFGS-B from a bounded start;
    when the certificate at that point misses ``tol``, one damped Newton
    polish runs from it and is kept if it lowers the KKT residual.  The
    certificate's ``iterations`` counts the L-BFGS-B iterations.  p = 1
    is a linear program solved by HiGHS.  Raises SolverStall when the
    final residual (which includes the relative duality gap) exceeds tol.
    """
    cost = np.asarray(cost, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if m == 0:
        x = np.zeros(n)
        return SolveResult(0.0, x, _power_certificate(x, np.zeros(0), A, b, cost, p), tol)
    if p == 1.0:
        return _solve_lp_min(cost, A, b, tol)

    def neg_dual(lam):
        x = _power_primal(lam, A, cost, p)
        with np.errstate(over="ignore"):
            val = lam @ b - np.sum(cost * x ** p * (p - 1.0))
        grad = b - A @ x
        if not math.isfinite(val):
            val = -INFEASIBLE
        return -val, -grad

    # start inside the region where the closed-form primal stays bounded:
    # with lam0 below p * min(cost / colsum), every ratio a_i/(p c_i) <= 1/2,
    # which matters enormously for p near 1 (the exponent 1/(p-1) blows up)
    colsum = A.sum(axis=0)
    pos = colsum > 0
    lam_scale = float(np.min(cost[pos] / colsum[pos])) * p if np.any(pos) else 1.0
    lam0 = np.full(m, 0.5 * lam_scale)
    from scipy.optimize import minimize
    res = minimize(
        neg_dual,
        lam0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(0.0, None)] * m,
        options={"maxiter": LBFGS_MAXITER, "ftol": 1e-16, "gtol": 1e-12},
    )
    lam = np.maximum(res.x, 0.0)
    x = _power_primal(lam, A, cost, p)
    cert = _power_certificate(x, lam, A, b, cost, p)
    if cert["kkt_residual"] > tol:
        lam_n = _dual_newton_polish(lam, A, b, cost, p)
        x_n = _power_primal(lam_n, A, cost, p)
        cert_n = _power_certificate(x_n, lam_n, A, b, cost, p)
        if cert_n["kkt_residual"] < cert["kkt_residual"]:
            x, cert = x_n, cert_n
    cert["iterations"] = int(res.nit)
    result = SolveResult(float(np.sum(cost * x ** p)), x, cert, tol)
    if cert["kkt_residual"] > tol:
        raise SolverStall(result)
    return result


def _dual_newton_polish(lam, A, b, cost, p, iters=60):
    """Damped Newton steps on the dual optimality system.

    The dual gradient is b - A x(lam); its Jacobian on coordinates with
    positive inner product is -A diag(x / ((p-1) a)) A^T.  Quadratic local
    convergence rescues the flat regimes where first-order ascent crawls.
    """
    lam = np.maximum(np.asarray(lam, dtype=float), 0.0)
    best = lam.copy()
    best_val = -INFEASIBLE
    damping = 1e-10
    for _ in range(iters):
        a = A.T @ lam
        x = _power_primal(lam, A, cost, p)
        grad = b - A @ x
        act = np.where((lam > 0) | (grad > 0))[0]
        if len(act) == 0:
            break
        d = np.where(a > 0, x / np.maximum((p - 1.0) * a, 1e-300), 0.0)
        J = (A[act] * d[None, :]) @ A[act].T
        J += damping * np.eye(len(act))
        try:
            step = np.linalg.solve(J, grad[act])
        except np.linalg.LinAlgError:
            break
        lam_new = lam.copy()
        lam_new[act] = np.maximum(lam[act] + step, 0.0)
        x_new = _power_primal(lam_new, A, cost, p)
        with np.errstate(over="ignore"):
            val = float(lam_new @ b - (p - 1.0) * np.sum(cost * x_new ** p))
        if math.isfinite(val) and val > best_val:
            best_val = val
            best = lam_new
            lam = lam_new
            damping = max(damping * 0.5, 1e-14)
        else:
            damping *= 10.0
            if damping > 1e6:
                break
    return best


def _power_certificate(x, lam, A, b, cost, p):
    """KKT-style certificate built on the duality gap.

    The gap between the best feasible rescaling of x and the exact dual
    value at lam bounds the suboptimality by weak duality; it is robust
    where coordinate stationarity is noise-amplified (p near 1).
    """
    if len(b) == 0:
        return {"slacks": np.zeros(0), "duals": lam, "primal_violation": 0.0,
                "complementarity": 0.0, "duality_gap": 0.0, "kkt_residual": 0.0}
    slacks = A @ x - b
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    viol = float(np.max(-slacks, initial=0.0))
    comp = float(np.max(np.abs(lam * slacks), initial=0.0))
    ax = A @ x
    need = np.where(b > 0,
                    np.where(ax > 0, b / np.maximum(ax, 1e-300), INFEASIBLE),
                    0.0)
    factor = max(1.0, float(np.max(need, initial=1.0)))
    if not math.isfinite(factor):
        f_feas = INFEASIBLE
    else:
        f_feas = float(np.sum(cost * (factor * x) ** p))
    if p > 1.0:
        x_dual = _power_primal(lam, A, cost, p)
        dual_val = float(lam @ b - (p - 1.0) * np.sum(cost * x_dual ** p))
    else:
        dual_val = float(lam @ b)
    gap = max(0.0, f_feas - dual_val)
    gap_rel = gap / (1.0 + abs(f_feas)) if math.isfinite(f_feas) else INFEASIBLE
    kkt = max(viol / scale, comp / scale, gap_rel)
    return {
        "slacks": slacks,
        "duals": lam,
        "primal_violation": viol,
        "complementarity": comp,
        "duality_gap": gap if math.isfinite(f_feas) else "unbounded",
        "kkt_residual": kkt,
    }


def _solve_lp_min(cost, A, b, tol):
    """min cost @ x s.t. A x >= b, x >= 0 (vertex optimum via HiGHS)."""
    from scipy.optimize import linprog
    m, n = A.shape
    res = linprog(
        c=cost, A_ub=-A, b_ub=-b, bounds=[(0.0, None)] * n, method="highs"
    )
    if not res.success:
        partial = SolveResult(INFEASIBLE, np.zeros(n), {"status": res.message}, tol)
        raise SolverStall(partial, f"LP failed: {res.message}")
    x = np.asarray(res.x)
    lam = np.asarray(res.ineqlin.marginals) * -1.0  # >=-form multipliers
    slacks = A @ x - b
    scale = 1.0 + float(np.max(np.abs(b), initial=0.0))
    viol = float(np.max(-slacks, initial=0.0))
    comp = float(np.max(np.abs(lam * slacks), initial=0.0))
    red = cost - A.T @ lam
    stat = float(np.max(-red, initial=0.0))
    degenerate = bool(np.any((np.abs(slacks) <= 1e-10) & (np.abs(lam) <= 1e-10)))
    cert = {
        "slacks": slacks,
        "duals": lam,
        "primal_violation": viol,
        "complementarity": comp,
        "stationarity": stat,
        "kkt_residual": max(viol, comp, stat) / scale,
        "vertex": True,
        "dual_degenerate": degenerate,
    }
    result = SolveResult(float(cost @ x), x, cert, tol)
    if cert["kkt_residual"] > tol:
        raise SolverStall(result)
    return result


def constraint_generation(cost, rows, b, p, tol=DEFAULT_TOL):
    """Solve the separable power program by generating violated rows.

    ``rows`` is the full (possibly large) constraint matrix; the working
    set starts from the most-violated row at x = 0 and grows one row at a
    time (most violated first, ties to the lowest index).  The final
    certificate carries the last working-set solve's ``duality_gap``
    (zero duals on the other rows extend its dual to the full program),
    ``iterations`` (L-BFGS-B iterations summed over rounds) and
    ``rounds``.
    """
    rows = np.asarray(rows, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = rows.shape
    keep = b > 0
    if not np.any(keep):
        x = np.zeros(n)
        return SolveResult(
            0.0, x, _power_certificate(x, np.zeros(m), rows, b, np.asarray(cost), p), tol
        )
    active = [int(np.argmax(b))]
    in_active = set(active)
    x = np.zeros(n)
    duals_full = np.zeros(m)
    iterations = 0
    for rounds in range(1, m + 2):
        sub = solve_separable_power(cost, rows[active], b[active], p, tol)
        iterations += sub.certificate.get("iterations", 0)
        x = sub.minimizer
        duals_full = np.zeros(m)
        duals_full[active] = sub.certificate["duals"]
        viol = b - rows @ x
        worst = int(np.argmax(viol))
        scale = 1.0 + float(np.max(np.abs(b)))
        if viol[worst] <= tol * scale or worst in in_active:
            break
        # most violated first, then every row violated at a comparable level
        batch = np.nonzero(viol >= 0.5 * viol[worst])[0]
        ordered = [worst] + [int(i) for i in batch if int(i) != worst]
        for i in ordered:
            if i not in in_active:
                active.append(i)
                in_active.add(i)
    slacks = rows @ x - b
    scale = 1.0 + float(np.max(np.abs(b)))
    cert = {
        "slacks": slacks,
        "duals": duals_full,
        "primal_violation": float(np.max(-slacks, initial=0.0)),
        "complementarity": float(np.max(np.abs(duals_full * slacks), initial=0.0)),
        "kkt_residual": max(
            float(np.max(-slacks, initial=0.0)),
            float(np.max(np.abs(duals_full * slacks), initial=0.0)),
        ) / scale,
        "active_set": list(map(int, active)),
        "iterations": iterations,
        "rounds": rounds,
    }
    cert.update({k: sub.certificate[k]
                 for k in ("duality_gap", "vertex", "dual_degenerate")
                 if k in sub.certificate})
    result = SolveResult(float(np.sum(np.asarray(cost) * x ** p)) if p > 1
                         else float(np.asarray(cost) @ x), x, cert, tol)
    if cert["kkt_residual"] > tol:
        raise SolverStall(result)
    return result


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
        res = linprog(
            c=cost, A_ub=-A, b_ub=-b,
            bounds=[(float(l), None) for l in lb], method="highs",
        )
        if not res.success:
            raise SolverStall(
                SolveResult(INFEASIBLE, lb.copy(), {"status": res.message}, tol),
                f"LP failed: {res.message}",
            )
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
        cons.append({
            "type": "ineq",
            "fun": lambda z: A @ z - b,
            "jac": lambda z: A,
        })
    z0 = np.maximum(lb, 0.0) + 1e-3
    res = minimize(
        objective, z0, jac=True, method="SLSQP",
        bounds=[(float(l), None) for l in lb], constraints=cons,
        options={"maxiter": 800, "ftol": 1e-14},
    )
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
    cert = {
        "slacks": slacks,
        "duals": lam,
        "primal_violation": float(np.max(-slacks, initial=0.0)),
        "complementarity": float(np.max(np.abs(lam * slacks), initial=0.0)) if len(b) else 0.0,
        "kkt_residual": float(np.max(-slacks, initial=0.0)) / scale,
        "norm_parts": [nu, ng],
    }
    if extra:
        cert.update(extra)
    return SolveResult(nu + ng, z, cert, tol)
