"""Finite metric measure spaces, curves, upper gradients, and the convex
programs for modulus, capacity, minimal upper gradients, and minimal
pair-defined gradients, plus ball-wise Poincare-ratio estimation.

Admissibility along a curve uses the trapezoidal edge rule
sum d(a, b) (g(a) + g(b)) / 2, which is additive over concatenation and
monotone in g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AllDegenerate
from .solver import SolveResult, constraint_generation, solve_norm_sum

INF = math.inf
TRIANGLE_SLACK = 1e-12
BLOCK = 1 << 16  # entries per block of distance rows in the ball sweeps


class MMS:
    """Finite metric measure space: distance matrix plus point weights.

    ``MMS(dist, weights)`` and ``MMS.from_dict``, and so every matrix read
    from a file, check the shape, symmetry, zero diagonal, positive
    off-diagonal entries and positive weights in O(n^2), and the triangle
    inequality in O(n^3).  The path, grid and tree generators run the same
    O(n^2) checks and then certify their matrix as the shortest-path metric
    of their edge list in O(n^2 * degree) (``_certify_shortest_paths``).
    """

    __slots__ = ("dist", "weights", "labels")

    def __init__(self, dist, weights, labels=None):
        d, w = _checked(dist, weights)
        # triangle inequality within declared slack
        for k in range(len(w)):
            if np.any(d > d[:, [k]] + d[[k], :] + TRIANGLE_SLACK):
                raise ValueError("triangle inequality violated")
        self.dist = d
        self.weights = w
        self.labels = list(labels) if labels is not None else list(range(len(w)))

    @classmethod
    def _graph(cls, dist, weights, edges):
        """A space whose matrix is certified through its edges (a, b)."""
        d, w = _checked(dist, weights)
        _certify_shortest_paths(d, *edges)
        space = cls.__new__(cls)
        space.dist = d
        space.weights = w
        space.labels = list(range(len(w)))
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
    """Complete rooted tree with unit edges; distances via ancestor depths.

    Nodes are numbered breadth first, so node i > 0 has parent
    (i - 1) // branching.
    """
    if branching < 0 or depth < 0:
        raise ValueError(f"a tree needs branching, depth >= 0, got {branching}, {depth}")
    n = sum(branching ** k for k in range(depth + 1))
    # up[k, i]: the k-th ancestor of node i, held at the root once reached
    up = [np.arange(n)]
    for _ in range(depth):
        up.append(np.maximum(up[-1] - 1, 0) // max(branching, 1))
    up = np.asarray(up)
    level = np.sum(up > 0, axis=0)
    # two nodes share their ancestors at depths 0 .. the depth of their
    # common ancestor; anc holds each node's ancestor at depth k, or -1
    common = np.full((n, n), -1)
    for k in range(depth + 1):
        steps = level - k
        anc = np.where(steps >= 0, up[np.maximum(steps, 0), np.arange(n)], -1)
        common += (anc[:, None] == anc[None, :]) & (anc[:, None] >= 0)
    dist = level[:, None] + level[None, :] - 2 * common
    child = np.arange(1, n)
    return MMS._graph(dist.astype(float), np.ones(n),
                      ((child - 1) // max(branching, 1), child))


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


def _edge_weights(space: MMS, curve: Curve):
    """Trapezoid coefficients per vertex position along the curve."""
    v = curve.vertices
    coef = np.zeros(space.n)
    for a, b in zip(v[:-1], v[1:]):
        half = 0.5 * space.dist[a, b]
        coef[a] += half
        coef[b] += half
    return coef


def line_integral(space: MMS, g, curve: Curve) -> float:
    """Trapezoidal edge rule along the curve; inf markers propagate."""
    g = np.asarray(g, dtype=float)
    total = 0.0
    for a, b in zip(curve.vertices[:-1], curve.vertices[1:]):
        d = space.dist[a, b]
        ga, gb = g[a], g[b]
        if not (math.isfinite(ga) and math.isfinite(gb)):
            if d > 0:
                return INF
            continue
        total += d * (ga + gb) / 2.0
    return total


@dataclass(frozen=True)
class UpperGradientVerdict:
    ok: bool
    worst_curve: Curve | None = None
    violation: float = 0.0

    def __bool__(self):
        return self.ok


def _endpoint_drop(u, curve: Curve) -> float:
    """|u(start) - u(end)| with the convention |(+-inf)-(+-inf)| = inf."""
    a = float(u[curve.vertices[0]])
    b = float(u[curve.vertices[-1]])
    if not (math.isfinite(a) and math.isfinite(b)):
        return INF
    return abs(a - b)


def is_upper_gradient(space: MMS, u, g, curves: CurveFamily,
                      tol=1e-10) -> UpperGradientVerdict:
    """Check the upper-gradient inequality on every curve of the family."""
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    worst = None
    worst_gap = 0.0
    for c in curves:
        lhs = _endpoint_drop(u, c)
        rhs = line_integral(space, g, c)
        if math.isinf(lhs) and math.isinf(rhs):
            continue
        gap = lhs - rhs
        if gap > worst_gap:
            worst_gap = gap
            worst = c
    scale = 1.0 + float(np.max(np.abs(u[np.isfinite(u)]), initial=0.0))
    if worst is not None and worst_gap > tol * scale:
        return UpperGradientVerdict(False, worst, worst_gap)
    return UpperGradientVerdict(True)


# -- convex programs ------------------------------------------------------------


def modulus(space: MMS, curves: CurveFamily, p, tol=1e-8) -> SolveResult:
    """p-modulus: min sum_i w_i rho_i^p with int_gamma rho ds >= 1 per curve."""
    if p < 1:
        raise ValueError("modulus requires p >= 1")
    n = space.n
    if len(curves) == 0:
        return SolveResult(0.0, np.zeros(n), {
            "slacks": np.zeros(0), "duals": np.zeros(0),
            "kkt_residual": 0.0, "note": "empty family"}, tol)
    rows = np.stack([_edge_weights(space, c) for c in curves])
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

    w = _edge_weights(space, curve)
    mu = space.weights
    mask = w > 0
    e = (p * np.log(w[mask]) - np.log(mu[mask])) / (p - 1.0)
    log_s = float(logsumexp(e))
    rho = np.zeros(space.n)
    rho[mask] = np.exp(np.log(w[mask] / mu[mask]) / (p - 1.0) - log_s)
    return math.exp(-(p - 1.0) * log_s), rho


def minimal_upper_gradient(space: MMS, u, curves: CurveFamily, p,
                           tol=1e-8) -> SolveResult:
    """min ||g||_{p,mu} over g >= 0 satisfying the curve constraints.

    The optimum is the weighted p-norm of the minimizer (attained; the
    feasible set is closed and the objective coercive).
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    u = np.asarray(u, dtype=float)
    n = space.n
    if len(curves) == 0:
        return SolveResult(0.0, np.zeros(n), {
            "slacks": np.zeros(0), "duals": np.zeros(0),
            "kkt_residual": 0.0, "note": "empty family"}, tol)
    rows = np.stack([_edge_weights(space, c) for c in curves])
    b = np.asarray([_endpoint_drop(u, c) for c in curves])
    res = constraint_generation(space.weights, rows, b, float(p), tol)
    power_opt = res.optimum
    res.optimum = power_opt ** (1.0 / p) if p > 1 else power_opt
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
    if not len(b):
        return SolveResult(0.0, np.zeros(n), {
            "slacks": np.zeros(0), "duals": np.zeros(0),
            "kkt_residual": 0.0, "note": "constant function"}, tol)
    rows = np.zeros((len(b), n))
    k = np.arange(len(b))
    rows[k, i] = rows[k, j] = space.dist[i, j]
    res = constraint_generation(space.weights, rows, b, float(p), tol)
    res.optimum = res.optimum ** (1.0 / p) if p > 1 else res.optimum
    res.certificate["objective"] = "weighted p-norm"
    return res


def capacity(space: MMS, fixed_set, curves: CurveFamily, p,
             tol=1e-8) -> SolveResult:
    """Sobolev capacity: min ||u||_p + ||g||_p over u >= chi_E, upper-gradient g.

    With an empty curve family the optimum is exactly ||chi_E||_p with
    u = chi_E and g = 0 (the trivial regime).
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    fixed = sorted(set(int(i) for i in fixed_set))
    if not fixed:
        raise ValueError("capacity needs a nonempty set")
    n = space.n
    mu = space.weights
    chi = np.zeros(n)
    chi[fixed] = 1.0
    if len(curves) == 0:
        opt = float(np.sum(mu[fixed])) ** (1.0 / p)
        return SolveResult(opt, np.concatenate((chi, np.zeros(n))), {
            "slacks": np.zeros(0), "duals": np.zeros(0),
            "kkt_residual": 0.0, "note": "empty family: ||chi_E||_p exactly",
            "norm_parts": [opt, 0.0]}, tol)
    rows = []
    for c in curves:
        coef = _edge_weights(space, c)
        row = np.zeros(2 * n)
        row[n:] = coef
        a, bb = c.vertices[0], c.vertices[-1]
        # two orientations of |u(a) - u(b)| <= int_gamma g
        r1 = row.copy()
        r1[a] -= 1.0
        r1[bb] += 1.0
        r2 = row.copy()
        r2[a] += 1.0
        r2[bb] -= 1.0
        rows.extend([r1, r2])
    A = np.stack(rows)
    b = np.zeros(len(rows))
    lb = np.concatenate((chi, np.zeros(n)))
    weights = np.concatenate((mu, mu))
    return solve_norm_sum(weights, A, b, lb, float(p), split=n, tol=tol)


# -- Poincare ratios ---------------------------------------------------------------


@dataclass(frozen=True)
class BallInfo:
    center: int
    radius: float
    members: tuple


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
        ds = np.take_along_axis(rows, order, axis=1)
        last = np.ones(ds.shape, dtype=bool)
        np.not_equal(ds[:, 1:], ds[:, :-1], out=last[:, :-1])
        yield first, order, ds, last


def _prefix_deviation(ww, uo, ends, means):
    """sum_{k <= e} ww[k] |uo[k] - m| for each prefix end e and its mean m."""
    inside = np.arange(len(uo)) <= ends[:, None]
    return np.sum(np.where(inside, ww * np.abs(uo - means[:, None]), 0.0), axis=1)


def poincare_ratio(space: MMS, u, g, p, lam=1.0):
    """Worst-ball ratio of the p-Poincare inequality; a c_PI lower bound.

    The balls are the distinct closed balls {y : d(c, y) <= r} about each
    center c, r running over the distances from c (the infimum of the
    open-ball radii realizing the set); g^p is averaged over the closed
    ball of radius lam * r about c.  Singletons and balls where both sides
    vanish are skipped; AllDegenerate is raised if every ball is skipped.
    Returns the ratio and the first worst ball in (center, radius) order.
    """
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    w = space.weights
    best = None
    best_ball = None
    for first, order, ds, last in _ball_index(space):
        for r, o in enumerate(order):
            ends = np.nonzero(last[r, 1:])[0] + 1
            # prefix diameters: running max over the rows of the sorted
            # submatrix, each row up to its diagonal
            diam = np.maximum.accumulate(np.maximum.accumulate(
                space.dist[np.ix_(o, o)], axis=1).diagonal())[ends]
            ww = w[o]
            cw = np.cumsum(np.append(0.0, ww))  # cw[k]: the k nearest points
            cg = np.cumsum(np.append(0.0, ww * g[o] ** p))
            mw = cw[ends + 1]
            lhs = _prefix_deviation(ww, u[o], ends, np.cumsum((u * w)[o])[ends] / mw) / mw
            # the lam-ball holds the k nearest points, those within lam * r
            k = np.searchsorted(ds[r], lam * ds[r, ends], side="right")
            denom = diam * (cg[k] / cw[k]) ** (1.0 / p)
            keep = ~(diam <= 0) & ~((lhs <= 0) & (denom <= 0))
            with np.errstate(over="ignore"):  # a tiny denominator: ratio inf
                ratio = np.divide(lhs, denom, out=np.full(len(lhs), INF),
                                  where=~(denom <= 0))[keep]
            if not len(ratio):
                continue
            # strict improvement keeps the first worst ball; nan never wins
            # (a nan ball makes every larger ball about its center nan too)
            j = int(np.argmax(np.where(np.isnan(ratio), -INF, ratio)))
            if best is not None and not ratio[j] > best:
                continue
            best = ratio[j]
            e = int(ends[keep][j])
            best_ball = BallInfo(first + r, float(ds[r, e]),
                                 tuple(int(i) for i in o[: e + 1]))
    if best is None:
        raise AllDegenerate("every ball was skipped")
    return float(best), best_ball


def rearranged(space: MMS, values):
    """Decreasing rearrangement of a point function over (P, mu)."""
    from .rearrange import WeightedSamples, decreasing_rearrangement

    return decreasing_rearrangement(
        WeightedSamples(np.asarray(values, dtype=float), space.weights)
    )
