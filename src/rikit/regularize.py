"""Truncation, gradient glueing, McShane extension, the fractional sharp
maximal function, and the constructive Lipschitz-truncation algorithm.

The truncation algorithm runs level scans on a shared geometric grid
(anchor times powers of two), so shrinking the accuracy budget can only
push the chosen levels upward; the exceptional sets then shrink along a
sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExhausted, HajlaszViolated, InvariantViolated,
                     NotLipschitzOnSubset)
from .metric import (MMS, CurveFamily, _ball_deviation, _ball_index, _ball_input,
                     is_upper_gradient)
from .rearrange import WeightedSamples
from .spaces import NormSpec, norm

INF = math.inf
SCAN_DOUBLINGS = 64


@dataclass
class TruncationResult:
    u_sigma: np.ndarray
    sigma: float
    superlevel: tuple
    norm_gap: float | None = None

    def to_dict(self):
        return {
            "u_sigma": [float(x) for x in self.u_sigma],
            "sigma": self.sigma,
            "superlevel": list(self.superlevel),
            "norm_gap": self.norm_gap,
        }


def superlevel_indices(values, sigma):
    """Indices where |values| > sigma."""
    v = np.abs(np.asarray(values, dtype=float))
    return tuple(int(i) for i in np.nonzero(v > sigma)[0])


def truncate(u, sigma, space: MMS | None = None,
             spec: NormSpec | None = None) -> TruncationResult:
    """Two-sided truncation max(min(u, sigma), -sigma).

    When a space and a norm spec are supplied, ``norm_gap`` carries
    ||u - u_sigma|| in that space.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    u = np.asarray(u, dtype=float)
    u_sigma = np.clip(u, -sigma, sigma)
    gap = None
    if spec is not None and space is not None:
        gap = norm(WeightedSamples(u - u_sigma, space.weights), spec)
    return TruncationResult(
        u_sigma=u_sigma,
        sigma=float(sigma),
        superlevel=superlevel_indices(u, sigma),
        norm_gap=gap,
    )


def glue_gradient(space: MMS, u, g, k, curves: CurveFamily):
    """Zero the gradient on the level set {u = k} and re-check.

    Returns (new_gradient, verdict, closed_under_subcurves).  On families
    closed under subcurves, with g an upper gradient of u, splitting at a
    curve's first and last hits of the level set bounds any violation by
    g's trapezoid mass on the two edges into those hits; elsewhere the
    check still runs and reports any violation.
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    new_g = np.where(u == k, 0.0, g)
    closed = curves.closed_under_subcurves()
    verdict = is_upper_gradient(space, u, new_g, curves)
    return new_g, verdict, closed


def mcshane_extend(space: MMS, subset, v, L) -> np.ndarray:
    """Upper McShane extension w(x) = min_{y in S} (v(y) + L d(x, y)).

    v must be L-Lipschitz on the subset (checked on all pairs); the
    extension agrees with v on the subset and is L-Lipschitz everywhere.
    """
    if L <= 0:
        raise ValueError("L must be positive")
    subset = sorted(set(int(i) for i in subset))
    if not subset:
        raise ValueError("subset must be nonempty")
    v = np.asarray(v, dtype=float)
    vs = v[subset]
    d_sub = space.dist[np.ix_(subset, subset)]
    diff = np.abs(vs[:, None] - vs[None, :])
    slack = diff - L * d_sub
    if np.any(slack > 1e-9 * max(L, 1.0)):
        i, j = np.unravel_index(int(np.argmax(slack)), slack.shape)
        a, b = subset[i], subset[j]
        raise NotLipschitzOnSubset((a, b), float(diff[i, j] / max(d_sub[i, j], 1e-300)))
    w = np.min(vs[None, :] + L * space.dist[:, subset], axis=1)
    return w


def lipschitz_bound(space: MMS, u):
    """Smallest pairwise difference quotient bound (inf for inf values)."""
    u = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(u)):
        return INF
    i, j = np.triu_indices(space.n, 1)
    return float(np.max(np.abs(u[i] - u[j]) / space.dist[i, j], initial=0.0))


def sharp_maximal(space: MMS, u) -> np.ndarray:
    """Fractional sharp maximal function (Lipschitz-order, centered).

    For each center the distinct closed balls are generated by the sorted
    distances; the (1/r) factor uses the largest in-ball distance, the
    supremum of the factor over the open-ball radii realizing the set.
    Balls of radius 0 are skipped.  An L-Lipschitz input yields values at
    most 2L.

    Each block of ``_ball_index`` takes array passes over all its balls,
    with the mean deviations in ``metric._ball_deviation``, so no
    temporary exceeds max(BLOCK, n) entries beside the block's own rows.
    """
    u = _ball_input(space, u)
    w = space.weights
    out = np.zeros(space.n)
    for first, order, ds, last in _ball_index(space):
        rows, ends = np.nonzero(last & (ds > 0))
        ww = w[order]
        cw = np.cumsum(ww, axis=1)[rows, ends]
        means = np.cumsum((u * w)[order], axis=1)[rows, ends] / cw
        dev = _ball_deviation(ww, u[order], rows, ends, means)
        # fmax: a nan ball value never wins, as in a max from 0
        np.fmax.at(out, first + rows, dev / cw / ds[rows, ends])
    return out


def check_hajlasz(space: MMS, u, h):
    """Verify |u(x) - u(y)| <= d(x, y)(h(x) + h(y)) on every pair, up to
    1e-7 (1 + max |u|); the first violating pair i < j in row-major order
    raises HajlaszViolated."""
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    scale = 1.0 + float(np.max(np.abs(u[np.isfinite(u)]), initial=0.0))
    lhs = np.abs(u[:, None] - u[None, :])
    rhs = space.dist * (h[:, None] + h[None, :])
    bad = np.triu(lhs > rhs + 1e-7 * scale, 1)
    if np.any(bad):
        i, j = map(int, np.argwhere(bad)[0])
        raise HajlaszViolated((i, j), float(lhs[i, j] - rhs[i, j]))


@dataclass
class LipTruncResult:
    u_eps: np.ndarray
    lipschitz_constant: float
    sigma: float
    sigma0: float
    exceptional: tuple
    eta: float
    norm_gap: float
    exceptional_measure: float = 0.0
    trace: list = field(default_factory=list)

    def to_dict(self):
        return {
            "u_eps": [float(x) for x in self.u_eps],
            "lipschitz_constant": self.lipschitz_constant,
            "sigma": self.sigma,
            "sigma0": self.sigma0,
            "exceptional": list(self.exceptional),
            "eta": self.eta,
            "norm_gap": self.norm_gap,
            "trace": self.trace,
        }


def _scan_grid_anchor(u):
    """Fixed anchor for the level grid: smallest positive |u| value."""
    a = np.abs(np.asarray(u, dtype=float))
    pos = a[a > 0]
    return float(np.min(pos)) if len(pos) else 1.0


def _first_level_at_least(anchor, lo):
    """Smallest anchor * 2^k strictly above lo (k >= 0)."""
    if anchor > lo:
        return anchor
    k = math.ceil(math.log2(lo / anchor) + 1e-12)
    sigma = anchor * 2.0 ** k
    while sigma <= lo:
        sigma *= 2.0
    return sigma


def _double_until(stage, sigma, keys, test, trace):
    """Double sigma until ``test`` passes; return the passing level.

    ``test(sigma)`` gives (a, b, ok); each level appends a trace row with
    a and b under ``keys``.  BudgetExhausted(stage, last level, trace)
    after SCAN_DOUBLINGS failed levels.
    """
    for _ in range(SCAN_DOUBLINGS):
        a, b, ok = test(sigma)
        trace.append({"stage": stage, "sigma": sigma, keys[0]: a, keys[1]: b,
                      "pass": bool(ok)})
        if ok:
            return sigma
        sigma *= 2.0
    raise BudgetExhausted(stage, sigma / 2.0, trace)


def lipschitz_truncation(space: MMS, u, h, spec: NormSpec,
                         curves: CurveFamily, eps,
                         c_delta=None) -> LipTruncResult:
    """Produce a 2*sigma-Lipschitz function within eps of u.

    Follows the constructive route: pick eta = eps / (6 c^2); truncate u
    at a level sigma0 > 1/eps small enough in the gap surrogate (function
    norm plus the restricted doubled pair-gradient norm); raise sigma
    until both level tests against the pair gradient pass; cut away the
    high set of h and extend by the upper McShane formula with constant
    2*sigma, truncated back at sigma.

    The scan loops track the doubled pair gradient; ``curves`` is not
    read.  The result is checked against its three invariants before it
    is returned (InvariantViolated on failure).

    Raises BudgetExhausted when a scan runs out of doublings; this is the
    expected outcome for weak-type norms without absolute continuity.
    """
    u = np.asarray(u, dtype=float)
    h = np.asarray(h, dtype=float)
    if eps <= 0:
        raise ValueError("eps must be positive")
    check_hajlasz(space, u, h)
    if c_delta is None:
        c_delta = 2.0 if spec.quasi_only else 1.0
    eta = eps / (6.0 * c_delta ** 2)
    w = space.weights
    g = 2.0 * h  # pair-curve upper gradient bound from the Hajlasz estimate
    trace = []

    def spec_norm(vals):
        # most scan tests restrict to an empty set: their norm is 0 unsorted
        return norm(WeightedSamples(vals, w), spec) if vals.any() else 0.0

    def gap_test(level):
        over = np.abs(u) > level
        gap_fn = spec_norm(np.where(over, u - np.clip(u, -level, level), 0.0))
        gap_gr = spec_norm(np.where(over, g, 0.0))
        return gap_fn, gap_gr, gap_fn + gap_gr < eta

    def high_set_test(level):
        high = h > level
        lvl = spec_norm(np.where(high, level, 0.0))
        grd = spec_norm(np.where(high, g, 0.0))
        return lvl, grd, lvl < eta and grd < eta and bool(np.any(~high))

    # stage 1: sigma0 > 1/eps with small truncation gap surrogate
    sigma0 = _first_level_at_least(_scan_grid_anchor(u), 1.0 / eps)
    sigma0 = _double_until("sigma0", sigma0, ("fn_gap", "grad_gap"), gap_test, trace)
    v = np.clip(u, -sigma0, sigma0)
    # stage 2: sigma >= sigma0 with small high-set tests against h
    sigma = _double_until("sigma", sigma0, ("level_test", "grad_test"),
                          high_set_test, trace)

    high_set = np.nonzero(h > sigma)[0]
    keep = np.nonzero(h <= sigma)[0]

    w_ext = mcshane_extend(space, keep, v, 2.0 * sigma)
    u_eps = np.clip(w_ext, -sigma, sigma)

    exceptional = tuple(sorted(set(map(int, high_set))
                               | set(superlevel_indices(u, sigma0))))

    # honest proof-following gap bound evaluated on the actual output
    gap_uv = spec_norm(u - v) + spec_norm(
        np.where(np.abs(u) > sigma0, g, 0.0))
    gap_ve = spec_norm(v - u_eps)
    gap_grad = spec_norm(np.where(h > sigma, g + 2.0 * sigma, 0.0))
    norm_gap = c_delta * (gap_uv + gap_ve + gap_grad)

    result = LipTruncResult(
        u_eps=u_eps,
        lipschitz_constant=2.0 * sigma,
        sigma=float(sigma),
        sigma0=float(sigma0),
        exceptional=exceptional,
        eta=float(eta),
        norm_gap=float(norm_gap),
        exceptional_measure=(
            float(np.sum(w[list(exceptional)])) if exceptional else 0.0
        ),
        trace=trace,
    )
    _check_lip_trunc(space, u, result)
    return result


def _check_lip_trunc(space: MMS, u, res: LipTruncResult):
    """Check the three invariants of a truncation result on every pair,
    each up to a relative 1e-9."""
    tol = 1e-9
    ue = res.u_eps
    L = res.lipschitz_constant
    if not float(np.max(np.abs(ue))) <= res.sigma + tol:
        raise InvariantViolated(f"|u_eps| exceeds sigma={res.sigma!r}")
    ok = np.abs(ue[:, None] - ue[None, :]) <= L * space.dist + tol * (1 + L)
    if not np.all(ok):
        i, j = sorted(map(int, np.argwhere(~ok)[0]))
        raise InvariantViolated(f"u_eps is not {L!r}-Lipschitz on pair ({i}, {j})")
    off = np.ones(space.n, dtype=bool)
    off[list(res.exceptional)] = False
    bad = off & ~(np.abs(ue - u) <= tol * (1 + np.abs(u)))
    if np.any(bad):
        raise InvariantViolated(
            f"u_eps differs from u off the exceptional set at {int(np.argmax(bad))}")


@dataclass
class ConvergenceRow:
    sigma: float
    fn_gap: float
    grad_norm: float


def truncation_convergence_report(space: MMS, u, curves: CurveFamily,
                                  spec: NormSpec, sigma_grid,
                                  solver_p=2.0, gradient=None):
    """Rows (sigma, ||u - u_sigma||_spec, ||g restricted||_spec).

    The gradient column restricts one minimal upper gradient of u (solved
    once with the L^p objective, or supplied) to the superlevel set of u;
    for weak-type norms the column exhibits the non-vanishing obstruction.
    """
    from .metric import minimal_upper_gradient

    u = np.asarray(u, dtype=float)
    if gradient is None:
        gradient = minimal_upper_gradient(space, u, curves, solver_p).minimizer
    g = np.asarray(gradient, dtype=float)
    rows = []
    for sigma in sigma_grid:
        tr = truncate(u, float(sigma), space, spec)
        over = np.abs(u) > sigma
        g_sigma = np.where(over, g, 0.0)
        rows.append(ConvergenceRow(
            sigma=float(sigma),
            fn_gap=float(tr.norm_gap),
            grad_norm=float(norm(WeightedSamples(g_sigma, space.weights), spec)),
        ))
    return rows
