"""Finite metric measure spaces, curves, upper gradients, and the convex
programs for modulus, capacity, minimal upper gradients, and minimal
pair-defined gradients, plus ball-wise Poincare-ratio estimation.

Admissibility along a curve uses the trapezoidal edge rule
sum d(a, b) (g(a) + g(b)) / 2, which is additive over concatenation and
monotone in g.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AllDegenerate, SolverStall
from .solver import (
    SolveResult,
    _add_telemetry,
    _feasibility,
    _finish,
    _telemetry,
    constraint_generation,
    solve_separable_power,
)

INF = math.inf
TRIANGLE_SLACK = 1e-12
BLOCK = 1 << 16  # entries per block of distance rows in the ball sweeps


class MMS:
    """Finite metric measure space: distance matrix plus point weights.

    ``MMS(dist, weights)`` and ``MMS.from_dict``, and so every matrix read
    from a file, check the shape, symmetry, zero diagonal, positive
    off-diagonal entries and positive weights in O(n^2), and the triangle
    inequality in O(n^3), a block of max(1, BLOCK // n^2) middle points at a
    time.  The path, grid and tree generators run the same
    O(n^2) checks and then certify their matrix as the shortest-path metric
    of their edge list in O(n^2 * degree) (``_certify_shortest_paths``).
    """

    __slots__ = ("dist", "weights")

    def __init__(self, dist, weights):
        d, w = _checked(dist, weights)
        # d[i, j] <= (d[i, k] + d[k, j]) + slack for a block of k at a time,
        # with temporaries of about max(BLOCK, n^2) entries
        n = len(w)
        step = max(1, BLOCK // max(n * n, 1))
        for k in range(0, n, step):
            via = d[:, k:k + step].T[:, :, None] + d[k:k + step, None, :]
            via += TRIANGLE_SLACK
            if np.any(d > via):
                raise ValueError("triangle inequality violated")
        self.dist = d
        self.weights = w

    @classmethod
    def _graph(cls, dist, weights, edges):
        """A space whose matrix is certified through its edges (a, b)."""
        d, w = _checked(dist, weights)
        _certify_shortest_paths(d, *edges)
        space = cls.__new__(cls)
        space.dist = d
        space.weights = w
        return space

    @property
    def n(self):
        return len(self.weights)

    @property
    def total_measure(self):
        return float(np.sum(self.weights))

    def to_dict(self):
        return {
            "dist": [[float(x) for x in row] for row in self.dist],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["dist"], d["weights"])


def _checked(dist, weights):
    """The O(n^2) checks shared by every way of building an MMS."""
    d = np.asarray(dist, dtype=float)
    w = np.asarray(weights, dtype=float)
    n = len(w)
    if d.shape != (n, n):
        raise ValueError("distance matrix shape must match weights")
    if not np.allclose(d, d.T, rtol=0, atol=TRIANGLE_SLACK):
        raise ValueError("distance matrix must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("distance matrix must have zero diagonal")
    off = d + np.eye(n) * 1.0
    if np.any(off <= 0):
        raise ValueError("off-diagonal distances must be strictly positive")
    if not np.all((w > 0) & np.isfinite(w)):
        raise ValueError("weights must be strictly positive")
    return d, w


def _certify_shortest_paths(d, a, b):
    """Prove that d is the shortest-path metric of the edges (a[e], b[e]).

    Each edge is taken both ways, with length l(k, j) = d[k, j] > 0.  Let
    reach[i, j] be the minimum over the neighbours k of j of d[i, k] + l(k, j).
    Off the diagonal, d <= reach says that every row is 1-Lipschitz across
    every edge, so d is at most the shortest-path metric; reach <= d says
    that every entry is reached through a neighbour at a smaller distance,
    so by induction on d, d is at least it.  Together they read reach == d
    off the diagonal, and then d is a metric.  Sums and comparisons are exact
    because d must hold integers below 2^53.  Rows go in blocks, so that the
    rows x 2m temporary holds about BLOCK entries.
    """
    n = len(d)
    if n < 2:
        return
    src = np.concatenate((a, b))
    dst = np.concatenate((b, a))
    order = np.argsort(dst, kind="stable")
    src, dst = src[order], dst[order]
    length = d[src, dst]
    if not np.all(length > 0):
        raise ValueError("edges must join distinct points")
    counts = np.bincount(dst, minlength=n)
    if not np.all(counts > 0):
        raise ValueError("every point needs a neighbour")
    starts = np.cumsum(counts) - counts
    step = max(1, BLOCK // len(src))
    for first in range(0, n, step):
        rows = d[first:first + step]
        if not (np.array_equal(rows, np.rint(rows)) and np.all(rows < 2.0 ** 53)):
            raise ValueError("certified distances must be integers below 2**53")
        reach = np.minimum.reduceat(rows[:, src] + length, starts, axis=1)
        reach[np.arange(len(rows)), np.arange(first, first + len(rows))] = 0.0
        if not np.array_equal(reach, rows):
            raise ValueError("distances are not the shortest-path metric of the edges")


@dataclass(frozen=True)
class Curve:
    """Vertex path with at least two vertices, consecutive distinct."""

    vertices: tuple

    def __post_init__(self):
        v = tuple(int(i) for i in self.vertices)
        if len(v) < 2:
            raise ValueError("a curve needs at least two vertices")
        if any(a == b for a, b in zip(v[:-1], v[1:])):
            raise ValueError("consecutive vertices must be distinct")
        object.__setattr__(self, "vertices", v)

    def length(self, space: MMS) -> float:
        v = self.vertices
        return float(sum(space.dist[a, b] for a, b in zip(v[:-1], v[1:])))

    def subcurves(self):
        v = self.vertices
        n = len(v)
        for i in range(n - 1):
            for j in range(i + 1, n):
                yield Curve(v[i : j + 1])


@dataclass
class CurveFamily:
    """Finite explicit curve family; empty encodes the trivial regime."""

    curves: list
    generator: str = "explicit"

    def __len__(self):
        return len(self.curves)

    def __iter__(self):
        return iter(self.curves)

    @classmethod
    def empty(cls):
        return cls([], generator="empty")

    @classmethod
    def pairs(cls, space: MMS):
        """All two-vertex curves (one per unordered pair)."""
        n = space.n
        cs = [Curve((i, j)) for i in range(n) for j in range(i + 1, n)]
        return cls(cs, generator="pairs")

    @classmethod
    def path_edges(cls, n):
        """Consecutive edges of a path on n vertices."""
        return cls([Curve((i, i + 1)) for i in range(n - 1)], generator="path-edges")

    @classmethod
    def path_subpaths(cls, n):
        """All contiguous subpaths of a path on n vertices."""
        cs = [
            Curve(tuple(range(i, j + 1)))
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return cls(cs, generator="path-subpaths")

    def closed_under_subcurves(self):
        have = {c.vertices for c in self.curves}
        for c in self.curves:
            for sub in c.subcurves():
                if sub.vertices not in have:
                    return False
        return True

    def to_dict(self):
        return {"curves": [list(c.vertices) for c in self.curves],
                "generator": self.generator}

    @classmethod
    def from_dict(cls, d):
        return cls([Curve(tuple(v)) for v in d["curves"]],
                   d.get("generator", "explicit"))


# -- generators ----------------------------------------------------------------


def path_space(n, spacing=1.0, weights=None):
    """Path on n points, spacing apart: the metric of the edges (i, i + 1)."""
    if n < 0:
        raise ValueError(f"a path needs n >= 0 points, got {n}")
    spacing = float(spacing)
    if not (spacing > 0 and math.isfinite(spacing)):
        raise ValueError("spacing must be positive and finite")
    idx = np.arange(n)
    d = np.abs(idx[:, None] - idx[None, :]).astype(float)
    w = np.full(n, 1.0) if weights is None else weights
    space = MMS._graph(d, w, (idx[:-1], idx[1:]))
    space.dist *= spacing
    return space


def grid_space(rows, cols):
    """Unit-edge lattice graph with shortest-path (Manhattan) distances."""
    if rows < 0 or cols < 0:
        raise ValueError(f"a grid needs rows, cols >= 0, got {rows}, {cols}")
    idx = np.arange(rows * cols)
    r, c = np.divmod(idx, cols)
    d = np.abs(r[:, None] - r[None, :]) + np.abs(c[:, None] - c[None, :])
    right = idx[c < cols - 1]
    down = idx[r < rows - 1]
    edges = (np.concatenate((right, down)), np.concatenate((right + 1, down + cols)))
    return MMS._graph(d.astype(float), np.ones(rows * cols), edges)


def tree_space(branching, depth):
    """Complete rooted tree with unit edges.

    Nodes are numbered breadth first, so node i > 0 has parent
    (i - 1) // branching; two nodes meet at their common ancestor when the
    larger number steps to its parent each time, in at most 2 * depth steps.
    """
    if branching < 0 or depth < 0:
        raise ValueError(f"a tree needs branching, depth >= 0, got {branching}, {depth}")
    n = sum(branching ** k for k in range(depth + 1))
    lo, hi = np.sort(np.indices((n, n)), axis=0)
    dist = np.zeros((n, n))
    for _ in range(2 * depth):
        apart = hi != lo
        dist += apart
        hi = np.where(apart, (hi - 1) // max(branching, 1), hi)
        hi, lo = np.maximum(hi, lo), np.minimum(hi, lo)
    child = np.arange(1, n)
    return MMS._graph(dist, np.ones(n), ((child - 1) // max(branching, 1), child))


_GENERATORS = {"path": (path_space, "path:n"), "grid": (grid_space, "grid:m,n"),
               "tree": (tree_space, "tree:b,d")}


def parse_generator(text):
    """Expand 'path:n', 'grid:m,n' or 'tree:b,d' into an MMS."""
    kind, _, args = text.partition(":")
    if kind not in _GENERATORS:
        raise ValueError(f"unknown generator {text!r}")
    make, form = _GENERATORS[kind]
    nums = [int(x) for x in args.split(",")] if args else []
    if len(nums) != form.count(",") + 1:
        raise ValueError(f"{kind} takes the form {form}: {text!r}")
    try:
        space = make(*nums)
    except ValueError as err:
        raise ValueError(f"{kind} takes the form {form}: {text!r} ({err})") from None
    if space.n == 0:
        raise ValueError(f"{kind} takes the form {form} with at least one point: {text!r}")
    return space


# -- curve integrals and upper gradients -----------------------------------------


def _family_rows(space: MMS, curves):
    """Trapezoid coefficients per vertex of every curve, one row per curve.

    One np.add.at over all edges, in curve-then-edge order, adds half of
    each edge's length at both its ends: every entry takes the same
    additions in the same order as a per-curve loop would.  An empty
    family gives shape (0, n).
    """
    lengths = [len(c.vertices) for c in curves]
    verts = np.fromiter(itertools.chain.from_iterable(c.vertices for c in curves),
                        dtype=np.intp, count=sum(lengths))
    owner = np.repeat(np.arange(len(lengths)), lengths)
    edge = owner[:-1] == owner[1:]  # consecutive vertices of one curve
    a, b = verts[:-1][edge], verts[1:][edge]
    rows = np.zeros((len(lengths), space.n))
    np.add.at(rows, (np.repeat(owner[:-1][edge], 2), np.stack((a, b), axis=1).ravel()),
              np.repeat(0.5 * space.dist[a, b], 2))
    return rows


def line_integral(space: MMS, g, curve: Curve) -> float:
    """Trapezoidal edge rule along the curve; inf markers propagate."""
    return float(_curve_integrals(_family_rows(space, [curve]), np.asarray(g, dtype=float))[0])


def _curve_integrals(rows, g):
    """rows @ g, inf where a row loads a point whose g is not finite."""
    bad = ~np.isfinite(g)
    out = rows @ np.where(bad, 0.0, g)
    out[np.any(rows[:, bad] > 0, axis=1)] = INF
    return out


def _curve_ends(curves):
    """(first vertex, last vertex) of every curve, one row each."""
    return np.array([(c.vertices[0], c.vertices[-1]) for c in curves], np.intp).reshape(-1, 2)


@dataclass(frozen=True)
class UpperGradientVerdict:
    ok: bool
    worst_curve: Curve | None = None
    violation: float = 0.0

    def __bool__(self):
        return self.ok


def _endpoint_drops(u, curves):
    """|u(start) - u(end)| per curve, inf where either end is not finite."""
    at = u[_curve_ends(curves)]
    with np.errstate(invalid="ignore"):  # inf - inf, where the drop is inf
        return np.where(np.all(np.isfinite(at), axis=1), np.abs(at[:, 0] - at[:, 1]), INF)


def is_upper_gradient(space: MMS, u, g, curves: CurveFamily,
                      tol=1e-10) -> UpperGradientVerdict:
    """Check the upper-gradient inequality on every curve of the family, each
    integral the curve's row of ``_family_rows`` (the programs' rows) times g."""
    u = np.asarray(u, dtype=float)
    drops = _endpoint_drops(u, curves)
    ints = _curve_integrals(_family_rows(space, curves), np.asarray(g, dtype=float))
    both = np.isinf(drops) & np.isinf(ints)
    gap = np.append(np.where(both, 0.0, drops) - np.where(both, 0.0, ints), 0.0)
    worst = int(np.argmax(gap))  # the appended 0 where no curve is violated
    scale = 1.0 + float(np.max(np.abs(u[np.isfinite(u)]), initial=0.0))
    if gap[worst] > max(tol * scale, 0.0):
        return UpperGradientVerdict(False, curves.curves[worst], float(gap[worst]))
    return UpperGradientVerdict(True)


# -- convex programs ------------------------------------------------------------


def modulus(space: MMS, curves: CurveFamily, p, tol=1e-8) -> SolveResult:
    """p-modulus: min sum_i w_i rho_i^p with int_gamma rho ds >= 1 per curve."""
    if p < 1:
        raise ValueError("modulus requires p >= 1")
    rows = _family_rows(space, curves)
    b = np.ones(len(curves))
    return constraint_generation(space.weights, rows, b, float(p), tol)


def single_curve_modulus_oracle(space: MMS, curve: Curve, p):
    """Closed-form one-constraint KKT optimum (the pre-build oracle).

    rho_i proportional to (w_i / mu_i)^{1/(p-1)} with w the trapezoid
    coefficients; optimum (sum_i mu_i^{-1/(p-1)} w_i^{p/(p-1)})^{-(p-1)}.
    Evaluated in log space so exponents near 1/(p-1) stay finite.
    """
    if p <= 1:
        raise ValueError("closed form needs p > 1")
    from scipy.special import logsumexp

    w = _family_rows(space, [curve])[0]
    mu = space.weights
    mask = w > 0
    e = (p * np.log(w[mask]) - np.log(mu[mask])) / (p - 1.0)
    log_s = float(logsumexp(e))
    rho = np.zeros(space.n)
    rho[mask] = np.exp(np.log(w[mask] / mu[mask]) / (p - 1.0) - log_s)
    return math.exp(-(p - 1.0) * log_s), rho


def minimal_upper_gradient(space: MMS, u, curves: CurveFamily, p) -> SolveResult:
    """min ||g||_{p,mu} over g >= 0 satisfying the curve constraints.

    The optimum is the weighted p-norm of the minimizer (attained; the
    feasible set is closed and the objective coercive).
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    u = np.asarray(u, dtype=float)
    rows = _family_rows(space, curves)
    b = _endpoint_drops(u, curves)
    res = constraint_generation(space.weights, rows, b, float(p), 1e-8)
    res.optimum = res.optimum ** (1.0 / p)
    res.certificate["objective"] = "weighted p-norm"
    return res


def minimal_hajlasz(space: MMS, u, p, tol=1e-8) -> SolveResult:
    """min ||h||_{p,mu} over h >= 0 with d(x,y)(h(x)+h(y)) >= |u(x)-u(y)|."""
    if p < 1:
        raise ValueError("p >= 1 required")
    u = np.asarray(u, dtype=float)
    n = space.n
    # one row per pair i < j in row-major order, unless its drop is 0
    i, j = np.triu_indices(n, 1)
    b = np.abs(u[i] - u[j])
    keep = ~(b <= 0)
    i, j, b = i[keep], j[keep], b[keep]
    rows = np.zeros((len(b), n))
    k = np.arange(len(b))
    rows[k, i] = rows[k, j] = space.dist[i, j]
    res = constraint_generation(space.weights, rows, b, float(p), tol)
    res.optimum = res.optimum ** (1.0 / p)
    res.certificate["objective"] = "weighted p-norm"
    return res


def capacity(space: MMS, fixed_set, curves: CurveFamily, p,
             tol=1e-8) -> SolveResult:
    """Sobolev capacity: min ||u||_p + ||g||_p over u >= chi_E, upper-gradient g.

    z = (u, g) >= 0 meets both orientations of |u(a) - u(b)| <= int_gamma g
    per curve and e_i . z >= 1 per point i of E.  For p > 1, Hoelder's
    (a + b)^p = min over theta of a^p theta^(1-p) + b^p (1-theta)^(1-p)
    makes capacity^p a minimum of separable power programs, with costs
    mu theta^(1-p) on u and mu (1-theta)^(1-p) on g; secant steps on logit
    theta, in a bracket, solve theta = ||u|| / (||u|| + ||g||), each solve
    warm from the last duals.  The minimizer is the best iterate made
    exactly feasible, an upper bound; the best duals, scaled into the
    norm-sum dual, give ``lower_bound`` = lam.b / max(||(A^T lam)^+_u /
    mu||_{p',mu}, ||(A^T lam)^+_g / mu||_{p',mu}).  ``kkt_residual`` holds
    their gap (``duality_gap``) over 1 + optimum; SolverStall is raised
    when it exceeds tol.  An empty curve family gives exactly ||chi_E||_p,
    with u = chi_E and g = 0 (the trivial regime).
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    fixed = sorted(set(int(i) for i in fixed_set))
    if not fixed:
        raise ValueError("capacity needs a nonempty set")
    n = space.n
    mu = space.weights
    if len(curves) == 0:
        opt = float(np.sum(mu[fixed])) ** (1.0 / p)
        return SolveResult(opt, np.isin(np.arange(2 * n), fixed).astype(float), {
            "slacks": np.zeros(0), "duals": np.zeros(0), "duality_gap": 0.0,
            "kkt_residual": 0.0, "note": "empty family: ||chi_E||_p exactly",
            "norm_parts": [opt, 0.0]}, tol)
    p, q = float(p), INF if p == 1 else p / (p - 1.0)  # q: the dual exponent
    coef = _family_rows(space, curves)
    ends = _curve_ends(curves)
    k = np.arange(len(curves))
    A = np.zeros((2 * len(k) + len(fixed), 2 * n))
    A[:2 * len(k), n:] = np.repeat(coef, 2, axis=0)
    A[2 * k, ends[:, 0]] = A[2 * k + 1, ends[:, 1]] = -1.0
    A[2 * k, ends[:, 1]] = A[2 * k + 1, ends[:, 0]] = 1.0
    A[2 * len(k) + np.arange(len(fixed)), fixed] = 1.0
    b = np.concatenate((np.zeros(2 * len(k)), np.ones(len(fixed))))
    # u = 1, g = 0 is feasible: the first upper bound
    z_best = np.concatenate((np.ones(n), np.zeros(n)))
    upper, lower, lam_best = _norm(mu, z_best[:n], p), 0.0, np.zeros(len(b))
    tele = _telemetry("", [])
    t, lam, last, lo, hi = 0.0, np.zeros(len(b)), None, -INF, INF
    for rounds in range(1, CAPACITY_ROUNDS + 1):
        # theta^(1-p) and (1-theta)^(1-p) at theta = 1/(1+exp(-t)), in logs
        cost = np.concatenate((mu * math.exp((p - 1.0) * np.logaddexp(0.0, -t)),
                               mu * math.exp((p - 1.0) * np.logaddexp(0.0, t))))
        try:
            sub = solve_separable_power(cost, A, b, p, tol, lam)
        except SolverStall as err:
            sub = err.result
        _add_telemetry(tele, sub.telemetry)
        lam, z = sub.certificate["duals"], sub.minimizer
        cand = _feasible_rescale(z, fixed, coef, ends)
        value = _norm(mu, cand[:n], p) + _norm(mu, cand[n:], p)
        if value < upper:  # False for nan: no rescaling existed
            z_best, upper = cand, value
        c = np.maximum(A.T @ lam, 0.0) / np.concatenate((mu, mu))
        top = max(_norm(mu, c[:n], q), _norm(mu, c[n:], q))
        if top > 0 and float(lam @ b) / top > lower:
            lower, lam_best = float(lam @ b) / top, lam / top
        if upper - lower <= tol * (1.0 + upper) or p == 1.0:
            break
        # F(t) = log(||u|| / ||g||) - t falls through 0 at the optimal theta
        with np.errstate(divide="ignore"):
            f = float(np.log(_norm(mu, z[:n], p)) - np.log(_norm(mu, z[n:], p))) - t
        step = f  # the fixed-point step t = log(||u|| / ||g||)
        if sub.certificate["kkt_residual"] <= tol:  # a stalled solve places no bracket end
            lo, hi = (t, hi) if f > 0 else (lo, t)
            if last is not None and math.isfinite(f - last[1]) and f != last[1]:
                step = f * (t - last[0]) / (last[1] - f)  # secant
            last = (t, f)
        t = min(max(t + step, -LOGIT_MAX), LOGIT_MAX)
        if math.isfinite(lo + hi) and not lo < t < hi:
            t = 0.5 * (lo + hi)
    tele["theta_rounds"] = rounds
    cert, _ = _feasibility(A @ z_best - b, lam_best, b)
    gap = max(0.0, upper - lower)
    cert.update(duality_gap=gap, lower_bound=lower,
                norm_parts=[_norm(mu, z_best[:n], p), _norm(mu, z_best[n:], p)],
                kkt_residual=max(cert["kkt_residual"], gap / (1.0 + upper)))
    return _finish(SolveResult(upper, z_best, cert, tol, tele))


CAPACITY_ROUNDS = 100  # theta rounds; the bisection fallback halves the bracket
LOGIT_MAX = 36.0  # |logit theta| past which 1 - theta or theta is below rounding


def _norm(mu, v, r):
    """||v||_{r, mu} of v >= 0, scaled by its largest entry against overflow."""
    top = float(np.max(v, initial=0.0))
    if math.isinf(r) or not 0.0 < top < INF:
        return top
    return top * float(np.sum(mu * (v / top) ** r)) ** (1.0 / r)


def _feasible_rescale(z, fixed, coef, ends):
    """z = (u, g) made exactly feasible; non-finite where min u_E = 0.

    u goes over min u_E; g rises by deficit / sum(coef) on each vertex of a
    short curve, which meets it at no cost to the others (coef >= 0).
    """
    n = len(z) // 2
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = z[:n] / np.min(z[fixed])
        deficit = np.abs(u[ends[:, 0]] - u[ends[:, 1]]) - coef @ z[n:]
        lift = np.maximum(deficit, 0.0) / coef.sum(axis=1)
        return np.concatenate((u, z[n:] + np.max(lift[:, None] * (coef > 0), axis=0)))


# -- Poincare ratios ---------------------------------------------------------------


@dataclass(frozen=True)
class BallInfo:
    center: int
    radius: float
    members: tuple


def _ball_input(space: MMS, u, p=1.0) -> np.ndarray:
    """u as floats, checked to hold one value per point and no nan (an inf
    marker stays), with 1 <= p < inf."""
    if not 1 <= p < INF:  # NaN too
        raise ValueError(f"1 <= p < inf required, got {p!r}")
    u = np.asarray(u, dtype=float)
    if u.shape != (space.n,):
        raise ValueError(f"one value per point required: {u.shape} values on {space.n} points")
    if np.isnan(u).any():
        raise ValueError("point values must not be nan")
    return u


def _ball_index(space: MMS):
    """Distance-sorted rows, in blocks of max(1, BLOCK // n) centres.

    Yields (first, order, ds, last) for the block starting at centre
    ``first``: the stable row-wise argsort, the sorted distances, and the
    mask of entries that end their tie group.  The distinct closed balls
    about a centre are the prefixes order[: k + 1] with last[k] set, of
    radius ds[k].
    """
    step = max(1, BLOCK // max(space.n, 1))
    for first in range(0, space.n, step):
        rows = space.dist[first:first + step]
        order = np.argsort(rows, axis=1, kind="stable")
        ds = np.sort(rows, axis=1)  # the values of rows[order]: tied entries are equal
        last = np.ones(ds.shape, dtype=bool)
        np.not_equal(ds[:, 1:], ds[:, :-1], out=last[:, :-1])
        yield first, order, ds, last


def _ball_deviation(ww, uo, rows, ends, means):
    """sum_{k <= e} ww[r, k] |uo[r, k] - m| for each pair (r, e) and its mean m.

    ww and uo hold a block's weights and values in distance order, one row
    per centre, so the pair (r, e) is the ball order[r, : e + 1].  The pairs
    go, in order of prefix length, into chunks of at most BLOCK padded
    entries, or of one pair where e + 1 > BLOCK.  A chunk is a gathered
    copy uo[rows, :width], worked in place: subtract the means, abs,
    multiply by the gathered weights, then one masked sum per pair, whose
    mask k <= e is a window onto one array of n ones and n zeros.  So no
    temporary exceeds max(BLOCK, n) entries.  Every term is nonnegative,
    so any summation order keeps a sum within about n ulps relative.
    """
    n = uo.shape[1]
    # inside[n - 1 - e, k] is k <= e
    inside = np.lib.stride_tricks.sliding_window_view(np.arange(2 * n) < n, n)
    by_len = np.argsort(ends, kind="stable")
    e = ends[by_len]
    out = np.empty(len(e))
    start = 0
    while start < len(e):
        # as many pairs as the first width admits bound the widest one taken
        most = e[min(start + max(1, BLOCK // (e[start] + 1)), len(e)) - 1] + 1
        stop = min(start + max(1, BLOCK // most), len(e))
        take = by_len[start:stop]
        width = e[stop - 1] + 1
        r = rows[take]
        chunk = uo[r, :width]
        chunk -= means[take, None]
        np.abs(chunk, out=chunk)
        chunk *= ww[r, :width]
        out[take] = np.add.reduce(chunk, axis=1,
                                  where=inside[n - 1 - e[start:stop], :width])
        start = stop
    return out


def _prefix_diameters(dist, order):
    """diam[r, k]: the diameter of the points order[r, : k + 1].

    Rows go in chunks of max(1, BLOCK // n^2); each gathers its rows'
    distance-sorted submatrices, so no temporary exceeds max(BLOCK, n^2)
    entries.  A row's running max over the entries below the diagonal,
    then the running max down the rows, gives the prefix diameters.
    """
    n = order.shape[1]
    below = np.tri(n, dtype=bool)
    diam = np.empty(order.shape)
    step = max(1, BLOCK // (n * n))
    for first in range(0, len(order), step):
        o = order[first:first + step]
        np.maximum.reduce(dist[o[:, :, None], o[:, None, :]], axis=2, where=below,
                          initial=0.0, out=diam[first:first + step])
    return np.maximum.accumulate(diam, axis=1, out=diam)


def poincare_ratio(space: MMS, u, g, p, lam=1.0):
    """Worst-ball ratio of the p-Poincare inequality; a c_PI lower bound.

    The balls are the distinct closed balls {y : d(c, y) <= r} about each
    center c, r running over the distances from c (the infimum of the
    open-ball radii realizing the set); g^p is averaged over the closed
    ball of radius lam * r about c, lam >= 0.  Singletons and balls where
    both sides vanish are skipped; AllDegenerate is raised if every ball is
    skipped.  Returns the ratio and the first worst ball in (center, radius)
    order.

    Each block of ``_ball_index`` takes array passes over all its balls:
    prefix diameters over gathered submatrices (``_prefix_diameters``),
    the lam-ball counts in one search, and the mean deviations in
    ``_ball_deviation``.  So no temporary exceeds max(BLOCK, n^2) entries
    beside the block's own rows.
    """
    if not lam >= 0:
        raise ValueError(f"lam must be nonnegative, got {lam!r}")
    u = _ball_input(space, u, p)
    g = _ball_input(space, g)
    w = space.weights
    best = None
    best_ball = None
    for first, order, ds, last in _ball_index(space):
        rows, ends = np.nonzero(last & (ds > 0))  # no singletons
        ww = w[order]
        cw = np.cumsum(ww, axis=1)  # cw[r, k]: the k + 1 nearest points
        cg = np.cumsum((w * g ** p)[order], axis=1)
        mw = cw[rows, ends]
        means = np.cumsum((u * w)[order], axis=1)[rows, ends] / mw
        lhs = _ball_deviation(ww, u[order], rows, ends, means) / mw
        # the lam-ball holds the k nearest points, those within lam * r: one
        # search of the rows as complex (row, distance), which sort in that order
        keys = np.empty(ds.shape, dtype=complex)
        keys.real, keys.imag = np.arange(len(ds))[:, None], ds
        at = np.empty(len(rows), dtype=complex)
        at.real, at.imag = rows, lam * ds[rows, ends]
        k = np.searchsorted(keys.ravel(), at, side="right") - rows * ds.shape[1] - 1
        diam = _prefix_diameters(space.dist, order)[rows, ends]
        denom = diam * (cg[rows, k] / cw[rows, k]) ** (1.0 / p)
        keep = ~(diam <= 0) & ~((lhs <= 0) & (denom <= 0))
        with np.errstate(over="ignore"):  # a tiny denominator: ratio inf
            ratio = np.divide(lhs, denom, out=np.full(len(lhs), INF),
                              where=~(denom <= 0))[keep]
        if not len(ratio):
            continue
        rows, ends = rows[keep], ends[keep]
        # strict improvement keeps the first worst ball; nan never wins
        # (a nan ball makes every larger ball about its center nan too),
        # except that a first center whose balls are all nan sets best to nan
        j = int(np.argmax(np.where(np.isnan(ratio), -INF, ratio)))
        if best is None and np.all(np.isnan(ratio[rows == rows[0]])):
            j = 0
        if best is not None and not ratio[j] > best:
            continue
        best = ratio[j]
        r, e = rows[j], ends[j]
        best_ball = BallInfo(first + int(r), float(ds[r, e]), tuple(order[r, : e + 1].tolist()))
    if best is None:
        raise AllDegenerate("every ball was skipped")
    return float(best), best_ball
