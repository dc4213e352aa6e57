"""Convex program machinery with KKT certificates.

Every solver-backed operation runs on one program class, the separable
power program  min sum_i c_i x_i^p  s.t.  A x >= b, x >= 0.  It is solved
in the dual (closed-form primal recovery per dual iterate) by projected
dual Newton steps, from zero duals in the first round of constraint
generation and warm from the previous round's duals after it (a small
program's first round holds every row, and ends the loop); a stalled
Newton run restarts once from p times the HiGHS duals of the same rows.
The formulas of a dual point and its certificate (``_power_primal``,
``_dual_point``, ``_certificate``) hold no errstate: their callers do, a
Newton run once around the whole run, and the run compares its steps by
the scalar ``_kkt_residual``.  The p = 1 corner is a linear program: all
its rows go to HiGHS at once, through scipy's own HiGHS binding, as the
model and options that ``scipy.optimize.linprog`` would pass it, and it
returns a vertex optimum and exact duals.
Capacity's norm-sum program reduces to a family of these
(``metric.capacity``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import SolverStall

DEFAULT_TOL = 1e-8
NEWTON_MAXITER = 200
NEWTON_BACKTRACK = 60
NEWTON_TAIL = 1e-4
NEWTON_DAMP = 1e-6
NEWTON_STALL = 20  # steps without a lower least residual before Newton gives up
INFEASIBLE = math.inf
# HiGHS feasibility tolerances: its 1e-7 defaults accept x = 0 for right-hand
# sides below them
LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# linprog's fixed method="highs" settings (silent, presolve on, dual
# simplex, no debug checks), then LP_OPTIONS
_HIGHS_OPTIONS = {"output_flag": False, "log_to_console": False, "presolve": "on",
                  "simplex_strategy": 1, "highs_debug_level": 0, **LP_OPTIONS}
# programs with at most this many row entries (every `programs` bench
# program; Hajlasz on a 75-point path has 208k, on 100 points 495k) start
# constraint generation from every row, one Newton run.  Above it neither
# that run nor the rounds wins everywhere, so the rounds stay there
ALL_ROWS_MAX = 1 << 18


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


def _power_primal(a, pc, inv):
    """Closed-form minimizer of the Lagrangian where A^T lam = a.

    ``pc`` is p * cost and ``inv`` is 1 / (p - 1); the caller holds the
    errstate, since the power may overflow.
    """
    return np.minimum((np.maximum(a, 0.0) / pc) ** inv, X_CAP)


def solve_separable_power(cost, A, b, p, tol=DEFAULT_TOL, lam0=None):
    """min sum_i cost_i x_i^p over x >= 0 with A x >= b (b >= 0).

    Rows of A may hold entries of either sign: the closed-form primal
    (max(A^T lam, 0) / (p cost))^(1/(p-1)) is the Lagrangian's minimizer
    over x >= 0 for both.

    For p > 1, dual Newton (``_dual_newton``) maximizes the concave dual
    from the duals ``lam0`` (one per row; zeros when not given).  A run
    that stalls restarts once from ``_lp_start``.  ``iterations`` in the
    certificate counts Newton steps; ``telemetry`` names the stage that met
    tol and times each stage, the restart's LP as ``highs``.
    p = 1 is a linear program solved by HiGHS.  Raises SolverStall when
    the residual (which includes the relative duality gap) exceeds tol.
    A has rows: ``constraint_generation`` ends a program without a positive
    b by itself, and capacity has a row per point of its nonempty set.
    """
    cost, A, b = (np.asarray(v, dtype=float) for v in (cost, A, b))
    m = len(A)
    if p == 1.0:
        return _solve_lp_min(cost, A, b, tol)
    tele = _telemetry("newton", [m])
    lam = np.zeros(m) if lam0 is None else np.maximum(np.asarray(lam0, dtype=float), 0.0)
    x, cert, tele["newton_iterations"] = _timed(tele, "newton", _dual_newton,
                                                lam, A, b, cost, p, tol)
    if cert["kkt_residual"] > tol:
        lam = _timed(tele, "highs", _lp_start, cost, A, b, p, tol)
        if lam is not None:  # None: the rows are infeasible, and the stall stands
            x, cert, its = _timed(tele, "newton", _dual_newton, lam, A, b, cost, p, tol)
            tele["newton_iterations"] += its
    return _finish(SolveResult(float(np.sum(cost * x ** p)), x, cert, tol, tele))


def _lp_start(cost, A, b, p, tol):
    """p times the clipped HiGHS duals of the rows, or None if HiGHS finds no
    optimum.  A^T lam <= cost holds for LP duals lam, so the primal at p lam,
    (A^T lam / cost)^(1/(p-1)), is at most 1 however close p is to 1.  A
    missed LP certificate still gives duals."""
    try:
        lp = _solve_lp_min(cost, A, b, tol)
    except SolverStall as err:
        lp = err.result
    return p * np.maximum(lp.certificate["duals"], 0.0) if math.isfinite(lp.optimum) else None


def _telemetry(stage, working_set):
    return {"stage": stage, "newton_iterations": 0, "working_set": list(working_set),
            "wall_s": {}}


def _add_telemetry(tele, sub):
    """Fold one subsolve's telemetry into a running total."""
    tele["stage"] = sub["stage"]
    tele["working_set"] += sub["working_set"]
    tele["newton_iterations"] += sub["newton_iterations"]
    for stage, secs in sub["wall_s"].items():
        tele["wall_s"][stage] = tele["wall_s"].get(stage, 0.0) + secs


def _timed(tele, stage, fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    tele["wall_s"][stage] = tele["wall_s"].get(stage, 0.0) + time.perf_counter() - t0
    return out


def _finish(result):
    """Count the iterations; return the result, or raise SolverStall."""
    tele = result.telemetry
    result.certificate["iterations"] = tele["newton_iterations"]
    kkt = result.certificate["kkt_residual"]
    if kkt > result.tolerance:
        raise SolverStall(result, f"solver stalled in stage {result.telemetry['stage']!r} "
                                  f"at kkt_residual {kkt:.3g} > tol {result.tolerance:g}")
    return result


def _dual_newton(lam, A, b, cost, p, tol):
    """Projected Newton ascent on the dual from duals lam >= 0.

    Each step maximizes the dual's second-order model over lam >= 0 (an
    NNLS problem on the Cholesky factor of the negated Hessian
    A diag(x/((p-1)a)) A^T, damped Levenberg-Marquardt style because
    duplicate rows make it singular); violated rows whose positive support
    holds no primal mass jump instead to the one-row dual that closes their
    violation.  An Armijo search on the dual value follows; where that
    value is flat to rounding a step counts only if it lowers the KKT
    residual.
    Convergence is quadratic, so the run goes on past tol, to
    tol * NEWTON_TAIL, until no step helps, or until NEWTON_STALL steps in
    a row leave the least residual where it was.  Returns the
    least-residual primal, its certificate and the step count.

    The run enters one errstate, for all of it: overflow, division by 0
    and invalid values are expected of far iterates near p = 1, and the
    cap, the dual value -inf and the residual inf stand for them.  The
    invariants of the program are computed once.  Candidates and the best
    point are compared by the scalar ``_kkt_residual``; the certificate
    dict is built once, for the point returned.  Reductions on this path
    are ndarray methods: on rows this short, the Python wrappers of np.max
    and np.sum cost more than the reductions.
    """
    from scipy.optimize import nnls

    n = A.shape[1]
    pc, inv = p * cost, 1.0 / (p - 1.0)
    pos, bpos, scale, bmax = np.maximum(A, 0.0), b > 0, _scale(b), 1 + np.max(b)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # A_i^+ x at lam = e_i: lam_i = (g_i / unit_i)^(p-1) closes a dead row's g_i
        unit = np.sum(pos * (pos / pc) ** inv, axis=1)
        live = unit > 0

        def point(lam):
            """(lam, x, A x, sum c x^p, dual value), A^T lam and the searched value."""
            x, ax, power, dual, a = _dual_point(lam, A, b, cost, p, pc, inv)
            # the Lagrangian at a capped x is no dual value
            return (lam, x, ax, power, dual), a, dual if (x < X_CAP).all() else -INFEASIBLE

        pt, a, val = point(lam)
        res = _kkt_residual(*pt, b, bpos, cost, p, scale)[0]
        best, best_res = pt, res
        it = last_gain = 0
        while (it < NEWTON_MAXITER and it - last_gain < NEWTON_STALL
               and best_res > tol * NEWTON_TAIL):
            it += 1
            lam, x, ax = pt[:3]
            g = b - ax
            # the step moves the positive duals and the n (the model's rank)
            # worst-violated rows at 0; a row that loads no column moves no x
            enter = np.flatnonzero((lam <= 0) & (g > 0))
            moving = lam > 0
            moving[enter[np.argsort(-g[enter], kind="stable")[:n]]] = True
            mass = pos @ x > 0
            dead, model = moving & live & ~mass, moving & live & mass
            step = np.zeros_like(lam)
            step[dead] = (g[dead] / unit[dead]) ** (p - 1.0) - lam[dead]
            if model.any():
                # (p - 1) a underflows to 0 at a subnormal a near p = 1
                pa = (p - 1.0) * a
                d = np.where(pa > 0, x / pa, 0.0)
                Am = A[model]
                H = (Am * d) @ Am.T
                mu = NEWTON_DAMP * min(1.0, float(np.linalg.norm(g[model]) / bmax)) + 1e-10
                dH = H.diagonal()
                H += np.diag(mu * dH + 1e-14 * float(dH.max()))
                try:
                    L = np.linalg.cholesky(H)
                except np.linalg.LinAlgError:
                    break
                # max g.s - s.H.s/2 over lam + s >= 0, as an NNLS in y = lam + s
                y = nnls(L.T, np.linalg.solve(L, H @ lam[model] + g[model]))[0]
                step[model] = y - lam[model]
            slope, t = float(g @ step), 1.0
            for _ in range(NEWTON_BACKTRACK):
                cand, cand_a, cand_val = point(np.maximum(lam + t * step, 0.0))
                gain = cand_val - val
                rounding = 1e-14 * (1.0 + abs(val))
                armijo = gain > rounding and gain >= 1e-4 * t * slope
                if armijo or abs(gain) <= rounding:
                    cand_res = _kkt_residual(*cand, b, bpos, cost, p, scale)[0]
                    if armijo or cand_res < res:
                        break
                t *= 0.5 if math.isfinite(gain) else 1e-3  # overflow: far shorter
            else:
                break
            pt, a, val, res = cand, cand_a, cand_val, cand_res
            if res < best_res:
                best, best_res, last_gain = pt, res, it
        return best[1], _certificate(*best, b, cost, p), it


def _dual_point(lam, A, b, cost, p, pc, inv):
    """The primal x of duals lam, A @ x, sum cost x^p, the dual value at lam
    and A^T lam.

    ``pc`` is p * cost and ``inv`` is 1 / (p - 1).  The caller holds the
    errstate: x^p may overflow, and then the dual value is -inf.
    """
    a = A.T @ lam
    x = _power_primal(a, pc, inv)
    power = (cost * x ** p).sum()
    return x, A @ x, float(power), float(lam @ b - (p - 1.0) * power), a


def _power_certificate(x, lam, A, b, cost, p):
    """``_certificate`` of x and duals lam, every input computed here."""
    with np.errstate(over="ignore", invalid="ignore"):
        power = float(np.sum(cost * x ** p))
        dual = (_dual_point(lam, A, b, cost, p, p * cost, 1.0 / (p - 1.0))[3] if p > 1.0
                else float(lam @ b))
        return _certificate(lam, x, A @ x, power, dual, b, cost, p)


def _certificate(lam, x, ax, power, dual, b, cost, p):
    """KKT-style certificate built on the duality gap.

    ``ax`` is A @ x, ``power`` is sum cost x^p and ``dual`` the exact dual
    value at lam.  Its ``kkt_residual`` and ``duality_gap`` are those of
    ``_kkt_residual``.  The caller holds the errstate.
    """
    cert, scale = _feasibility(ax - b, lam, b)
    cert["kkt_residual"], cert["duality_gap"] = _kkt_residual(lam, x, ax, power, dual, b,
                                                              b > 0, cost, p, scale)
    return cert


def _kkt_residual(lam, x, ax, power, dual, b, bpos, cost, p, scale):
    """The KKT residual of a dual point and its duality gap.

    The arguments are those of ``_certificate``, with ``bpos`` = b > 0 and
    ``scale`` = ``_scale(b)``.  The gap between the best feasible
    rescaling of x and the dual value bounds the suboptimality by weak
    duality; it is robust where coordinate stationarity is noise-amplified
    (p near 1).  The residual is the larger of the feasibility residual and
    the gap over 1 + the rescaled objective.  The gap is "unbounded" where
    no finite rescaling is feasible, or its objective overflows; the
    residual is then inf.
    """
    need = np.where(bpos, np.where(ax > 0, b / np.maximum(ax, 1e-300), INFEASIBLE), 0.0)
    factor = max(1.0, float(need.max(initial=1.0)))
    if factor == 1.0:
        f_feas = power
    else:  # a huge rescaling: the gap is inf
        f_feas = (float(np.sum(cost * (factor * x) ** p)) if math.isfinite(factor)
                  else INFEASIBLE)
    feas = _violation(ax - b, lam, scale)[2]
    if not math.isfinite(f_feas):
        return max(feas, INFEASIBLE), "unbounded"
    gap = max(0.0, f_feas - dual)
    return max(feas, gap / (1.0 + abs(f_feas))), gap


def _scale(b):
    """1 + max |b|: the unit of the feasibility residual."""
    return 1.0 + float(np.max(np.abs(b), initial=0.0))


def _violation(slacks, lam, scale):
    """Primal violation, complementarity and their residual."""
    viol = float((-slacks).max(initial=0.0))
    comp = float(np.abs(lam * slacks).max(initial=0.0))
    return viol, comp, max(viol, comp) / scale


def _feasibility(slacks, lam, b):
    """Slacks, duals, violation, complementarity and their residual; scale."""
    scale = _scale(b)
    viol, comp, res = _violation(slacks, lam, scale)
    return {"slacks": slacks, "duals": lam, "primal_violation": viol,
            "complementarity": comp, "kkt_residual": res}, scale


def _solve_lp_min(cost, A, b, tol):
    """min cost @ x s.t. A x >= b, x >= 0 (vertex optimum via HiGHS).

    Raises ValueError on a non-finite cost, A or b, before HiGHS runs, and
    SolverStall with a partial result, its ``status`` the HiGHS model
    status, when HiGHS finds no optimum.
    """
    m, n = A.shape
    tele = _telemetry("highs", [m])
    status, x, lam = _timed(tele, "highs", _run_highs, cost, A, b)
    if x is None:
        partial = SolveResult(INFEASIBLE, np.zeros(n), {
            "status": status, "duals": np.zeros(m), "kkt_residual": INFEASIBLE}, tol, tele)
        raise SolverStall(partial, f"LP failed: HiGHS model status {status!r}")
    slacks = A @ x - b
    cert, scale = _feasibility(slacks, lam, b)
    stat = float(np.max(A.T @ lam - cost, initial=0.0))
    degenerate = bool(np.any((np.abs(slacks) <= 1e-10) & (np.abs(lam) <= 1e-10)))
    cert.update(stationarity=stat, vertex=True, dual_degenerate=degenerate,
                kkt_residual=max(cert["kkt_residual"], stat / scale))
    return _finish(SolveResult(float(cost @ x), x, cert, tol, tele))


def _run_highs(cost, A, b):
    """The HiGHS model status of min cost @ x s.t. A x >= b, x >= 0, its x
    and its >=-form duals (None, None without an optimum).

    HiGHS gets the model and options of ``linprog(method="highs")``, from
    scipy's own binding: columns x >= 0, rows -A x <= -b with -A in CSC
    arrays, and ``_HIGHS_OPTIONS``.
    """
    from scipy.optimize._highspy import _core as highs

    m, n = A.shape
    # the nonzeros of A by column, rows ascending: a row-major scan, sorted
    # stably, reads A in memory order.  An inf or a nan is nonzero, so the
    # check of A needs its nonzeros alone
    rows, cols = np.nonzero(A)
    by_col = np.argsort(cols, kind="stable")
    rows, cols = rows[by_col], cols[by_col]
    values = A[rows, cols]
    if not all(np.isfinite(v).all() for v in (cost, values, b)):
        raise ValueError("LP input must be finite: cost, A or b holds an inf or a nan")
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_ = cost
    lp.col_lower_, lp.col_upper_ = np.zeros(n), np.full(n, math.inf)
    lp.row_lower_, lp.row_upper_ = np.full(m, -math.inf), -b
    mat = lp.a_matrix_
    mat.format_ = highs.MatrixFormat.kColwise
    mat.num_col_, mat.num_row_ = n, m
    mat.start_ = np.searchsorted(cols, np.arange(n + 1))
    mat.index_ = rows
    mat.value_ = -values
    engine = highs._Highs()
    for key, value in _HIGHS_OPTIONS.items():
        engine.setOptionValue(key, value)
    if engine.passModel(lp) == highs.HighsStatus.kError:
        return engine.modelStatusToString(highs.HighsModelStatus.kModelError), None, None
    ran = engine.run()
    status = engine.getModelStatus()
    if ran == highs.HighsStatus.kError or status != highs.HighsModelStatus.kOptimal:
        return engine.modelStatusToString(status), None, None
    sol = engine.getSolution()
    return engine.modelStatusToString(status), np.array(sol.col_value), -np.array(sol.row_dual)


def constraint_generation(cost, rows, b, p, tol=DEFAULT_TOL):
    """Solve the separable power program by generating violated rows.

    ``rows`` is the full (possibly large) constraint matrix.  The first
    working set is every row when p = 1 (a linear program whose rows are
    all in memory) or when ``rows`` holds at most ``ALL_ROWS_MAX`` entries:
    one solve, from zero duals, ends the loop, and Newton's entering rule
    still admits at most n violated rows a step.  Otherwise it is the
    most-violated row at x = 0; each round solves the working set and adds
    the most-violated row, then every other row violated by at least half
    as much, in ascending index.  The first round starts Newton from zero
    duals, each later one from the last duals, zeros for new rows.  The
    certificate carries the last solve's ``duality_gap`` (zero duals on the
    other rows extend its dual to the full program), the summed
    ``iterations`` and ``rounds``; ``telemetry`` sums the rounds' and lists
    the working-set size per round.
    """
    rows, b = np.asarray(rows, dtype=float), np.asarray(b, dtype=float)
    m, n = rows.shape
    if not np.any(b > 0):
        x = np.zeros(n)
        return SolveResult(0.0, x, _power_certificate(x, np.zeros(m), rows, b, np.asarray(cost),
                                                      p), tol, _telemetry("trivial", []))
    # every row at once: then A is rows, uncopied, and one round ends the loop
    full = p == 1.0 or rows.size <= ALL_ROWS_MAX
    active = np.arange(m) if full else np.array([int(np.argmax(b))])
    in_active = np.zeros(m, dtype=bool)
    in_active[active] = True
    lam = np.zeros(len(active))
    tele = _telemetry("", [])
    scale = _scale(b)
    for rounds in range(1, m + 2):
        A = rows if full else rows[active]
        sub = solve_separable_power(cost, A, b[active], p, tol, lam)
        _add_telemetry(tele, sub.telemetry)
        x = sub.minimizer
        viol = b - rows @ x
        worst = int(np.argmax(viol))
        if viol[worst] <= tol * scale or in_active[worst]:
            break
        # most violated first, then every row violated at a comparable level
        batch = (viol >= 0.5 * viol[worst]) & ~in_active
        batch[worst] = False
        new = np.concatenate(([worst], np.flatnonzero(batch)))
        active = np.concatenate((active, new))
        in_active[new] = True
        lam = np.concatenate((sub.certificate["duals"], np.zeros(len(new))))
    duals_full = np.zeros(m)
    duals_full[active] = sub.certificate["duals"]
    cert, _ = _feasibility(rows @ x - b, duals_full, b)
    cert.update(active_set=active.tolist(), rounds=rounds)
    cert.update({k: sub.certificate[k]
                 for k in ("duality_gap", "vertex", "dual_degenerate")
                 if k in sub.certificate})
    return _finish(SolveResult(sub.optimum, x, cert, tol, tele))
