"""Distribution functions, decreasing rearrangements, and superlevel sets.

Functions on the half-line are carried as piecewise-constant ``GridFn``
objects; functions on a finite weighted point set as ``WeightedSamples``.
All operations are pure and exact (sort-based, closed-form cell sums).

Infinite values are carried as explicit ``math.inf`` markers.  Any integral
that touches an infinite cell of positive length returns the marker; no
``inf * 0`` ever enters quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAttainable

INF = math.inf

# absolute tolerance on accumulated weights (exact partial sums otherwise)
MEASURE_ATOL = 1e-12


class GridFn:
    """Piecewise-constant function on (0, inf).

    ``breakpoints`` is the full edge sequence 0 = t_0 < t_1 < ... < t_N;
    ``values[i]`` is the value on the half-open cell (t_{i-1}, t_i];
    ``tail`` is the constant value on (t_N, inf), either 0 or finite.
    """

    __slots__ = ("edges", "values", "tail")

    def __init__(self, breakpoints, values, tail=0.0):
        edges = np.asarray(breakpoints, dtype=float)
        vals = np.asarray(values, dtype=float)
        if edges.ndim != 1 or vals.ndim != 1:
            raise ValueError("breakpoints and values must be 1-d sequences")
        if len(edges) != len(vals) + 1:
            raise ValueError("need exactly one more breakpoint than values")
        if len(edges) == 0 or edges[0] != 0.0:
            raise ValueError("breakpoints must start at 0")
        if not np.all(np.isfinite(edges)):
            raise ValueError("breakpoints must be finite")
        if len(edges) > 1 and not np.all(np.diff(edges) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if np.any(np.isnan(vals)) or np.any(vals < 0):
            raise ValueError("values must be nonnegative (inf markers allowed)")
        tail = float(tail)
        if not (tail >= 0 and math.isfinite(tail)):
            raise ValueError("tail must be 0 or a finite nonnegative constant")
        # unit stride: numpy's vector pow rounds strided input (such as
        # np.sort(v)[::-1]) a last ulp apart, and norms take pow of values;
        # numpy flags a one-cell view contiguous whatever its stride
        self.edges, self.values = (np.ascontiguousarray(a) if a.size > 1 else a.copy()
                                   for a in (edges, vals))
        self.tail = tail

    # -- basic queries ----------------------------------------------------

    @property
    def ncells(self):
        return len(self.values)

    @property
    def support_end(self):
        """Last breakpoint (the function equals ``tail`` beyond it)."""
        return float(self.edges[-1])

    def value_at(self, t):
        """Value on the cell containing t; cells are right-closed.

        For t <= 0 the limit from the right (the first cell value) is
        returned; for t beyond the last breakpoint, ``tail``.
        """
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        idx = np.searchsorted(self.edges, t_arr, side="left")
        out = np.empty_like(t_arr)
        first = self.values[0] if self.ncells else self.tail
        out[idx <= 0] = first
        beyond = idx > self.ncells
        out[beyond] = self.tail
        inside = (idx > 0) & ~beyond
        if self.ncells:
            out[inside] = self.values[idx[inside] - 1]
        return out if np.ndim(t) else float(out[0])

    def max_value(self):
        cand = self.tail
        if self.ncells:
            cand = max(cand, float(np.max(self.values)))
        return cand

    def is_decreasing(self):
        if self.ncells == 0:
            return True
        ok = bool(np.all(np.diff(self.values) <= 0.0))
        return ok and self.tail <= self.values[-1]

    # -- exact cell calculus ----------------------------------------------

    def cell_integrals(self, power=1.0):
        """Per-cell integrals of f^power; inf markers propagate."""
        widths = np.diff(self.edges)
        vals = self.values
        out = np.empty_like(vals)
        finite = np.isfinite(vals)
        out[finite] = vals[finite] ** power * widths[finite]
        out[~finite] = INF
        return out

    def integral_to(self, t, power=1.0):
        """Integral of f^power over (0, t]: ``integrals_at`` at one point."""
        return float(self.integrals_at([t], power)[0])

    def total_integral(self, power=1.0):
        """Integral of f^power over (0, inf); inf if the tail is positive."""
        if self.tail > 0:
            return INF
        cells = self.cell_integrals(power)
        s = float(np.sum(cells))
        return s

    def integrals_at(self, ts, power=1.0):
        """Vectorized integral of f^power over (0, t] for each t in ts."""
        ts = np.asarray(ts, dtype=float)
        # an inf value times its positive width is the inf marker of its cell
        pows = self.values ** power
        cum = np.concatenate(([0.0], np.cumsum(pows * np.diff(self.edges))))
        # the rate of each cell, then of the tail beyond the last edge
        rates = np.append(pows, self.tail ** power if self.tail > 0 else 0.0)
        i = np.searchsorted(self.edges, ts, side="left") - 1
        out = np.zeros(len(ts))
        # t <= 0 stays 0 and never multiplies an inf cell by a zero width; any
        # other t lies above the left edge of its cell, or above the last edge,
        # and adds its cell's rate times a positive width to the integral up
        # to that edge; past the last edge only a positive tail adds, so
        # t = inf gives the total
        pos = ts > 0
        out[pos] = cum[i[pos]]
        grow = pos & ((i < self.ncells) | (self.tail > 0))
        out[grow] += rates[i[grow]] * (ts[grow] - self.edges[i[grow]])
        return out

    def has_inf(self):
        return bool(np.any(~np.isfinite(self.values)))

    # -- serialization ------------------------------------------------------

    def to_dict(self):
        return {
            "breakpoints": [float(x) for x in self.edges],
            "values": [float(v) for v in self.values],
            "tail": self.tail,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["breakpoints"], d["values"], d.get("tail", 0.0))

    def csv_rows(self):
        """One row per cell: (t_lo, t_hi, value)."""
        return [
            (float(self.edges[i]), float(self.edges[i + 1]), float(self.values[i]))
            for i in range(self.ncells)
        ]

    def __repr__(self):
        return (
            f"GridFn(edges={np.array2string(self.edges, precision=6)}, "
            f"values={np.array2string(self.values, precision=6)}, "
            f"tail={self.tail})"
        )


def indicator_gridfn(measure):
    """Characteristic function of a set of the given measure, as a GridFn."""
    if measure <= 0:
        raise ValueError("indicator measure must be positive")
    return GridFn([0.0, float(measure)], [1.0])


class WeightedSamples:
    """Extended-real values with strictly positive weights (measure units)."""

    __slots__ = ("values", "weights")

    def __init__(self, values, weights):
        vals = np.asarray(values, dtype=float)
        w = np.asarray(weights, dtype=float)
        if vals.ndim != 1 or w.ndim != 1 or len(vals) != len(w):
            raise ValueError("values and weights must be 1-d of equal length")
        if np.any(np.isnan(vals)):
            raise ValueError("values must not contain NaN")
        if not np.all((w > 0) & np.isfinite(w)):
            raise ValueError("weights must be strictly positive and finite")
        self.values = vals
        self.weights = w

    def __len__(self):
        return len(self.values)

    @property
    def total_weight(self):
        return float(np.sum(self.weights))

    def to_dict(self):
        return {
            "values": [float(v) for v in self.values],
            "weights": [float(w) for w in self.weights],
        }

    @classmethod
    def from_dict(cls, d):
        return cls(d["values"], d["weights"])


@dataclass(frozen=True)
class SuperlevelSet:
    """One canonical member of the measure-t superlevel family.

    Satisfies the sandwich {|u| > level} <= A <= {|u| >= level} with
    total weight equal to ``target_measure`` up to the measure tolerance.
    """

    indices: tuple
    target_measure: float
    level: float


def distribution(u: WeightedSamples, t) -> float:
    """Weight of {|u| > t}; right-continuous and non-increasing in t."""
    t = float(t)
    if math.isnan(t):
        raise ValueError("distribution requires a t that is not NaN")
    mask = np.abs(u.values) > t
    return float(np.sum(u.weights[mask]))


def _descending_order(a, minor):
    """``(order, a[order])``: ``a`` descending, equal values by ``minor`` ascending.

    One default argsort orders ``a``.  Only if some value repeats does a
    second argsort, on the int64 key run index * n + rank of ``minor``,
    order each run of equal values; that key is unique, so the order does
    not depend on where the first sort left the ties.  ``a`` holds
    magnitudes (no -0.0, no NaN), so a run's values are bit-identical and
    the sorted values stand after the reorder.
    """
    order = np.argsort(-a)
    sorted_a = a[order]
    new_run = sorted_a[1:] != sorted_a[:-1]
    if new_run.all():
        return order, sorted_a
    n = len(a)
    rank = np.empty(n, dtype=np.int64)
    # array methods: the np.argsort and np.cumsum wrappers add a Python
    # call each, which small inputs with ties pay on every rearrangement
    rank[minor.argsort()] = np.arange(n)
    key = rank[order]
    key[1:] += new_run.cumsum() * n
    return order[key.argsort()], sorted_a


def decreasing_rearrangement(u: WeightedSamples) -> GridFn:
    """Sort-based exact rearrangement of |u| onto (0, total_weight].

    Samples are sorted canonically: |value| descending and, among equal
    values, weight descending.  One default argsort orders |value|, and
    only runs of equal values are reordered, by one argsort on the int64
    key (run index, weight rank); equal (|value|, weight) pairs are
    interchangeable, so any order these sorts leave them in gives the
    same arrays.  Each block of equal values becomes one cell whose width
    is the sequential sum of its weights in that order; the edges are the
    running sum of the cell widths, and the trailing zero block is
    dropped.  The order depends only on the multiset of (|value|, weight)
    pairs, so equimeasurable inputs (any permutation in particular)
    produce bit-identical GridFns.
    """
    neg_w = -u.weights
    order, vals = _descending_order(np.abs(u.values), neg_w)
    if len(vals) == 0:
        return GridFn([0.0], [])
    starts = np.flatnonzero(np.concatenate(([True], vals[1:] != vals[:-1])))
    # w0 - (-w1) - (-w2) - ...: subtraction reduces strictly left to right,
    # where np.add.reduceat may regroup a block pairwise
    signed = neg_w[order]
    signed[starts] = -signed[starts]
    merged_w = np.subtract.reduceat(signed, starts)
    merged_vals = vals[starts]
    if merged_vals[-1] == 0.0:
        merged_vals, merged_w = merged_vals[:-1], merged_w[:-1]
    return GridFn(np.concatenate(([0.0], np.cumsum(merged_w))), merged_vals)


def gridfn_distribution(f: GridFn, t) -> float:
    """Lebesgue measure of {f > t} for a GridFn (inf if the tail exceeds t)."""
    t = float(t)
    if math.isnan(t):
        raise ValueError("gridfn_distribution requires a t that is not NaN")
    if f.tail > t:
        return INF
    widths = np.diff(f.edges)
    mask = f.values > t
    return float(np.sum(widths[mask]))


def star_star(ustar: GridFn, t) -> float:
    """Elementary maximal function: the running average (1/t) int_0^t u*."""
    t = float(t)
    if not 0 < t < INF:  # NaN too
        raise ValueError("star_star requires a finite t > 0")
    s = ustar.integral_to(t)
    if not math.isfinite(s):
        return INF
    return s / t


def superlevel_family(u: WeightedSamples, t) -> SuperlevelSet:
    """One canonical superlevel set of measure t (lowest indices first).

    Raises NotAttainable when no subset at the cut level reaches measure t
    exactly (finite atoms cannot be split); the error carries the two
    nearest attainable measures.
    """
    t = float(t)
    total = u.total_weight
    if not -MEASURE_ATOL <= t <= total + MEASURE_ATOL:  # NaN too
        raise ValueError("t must lie in [0, total weight]")
    if t <= MEASURE_ATOL:
        a = np.abs(u.values)
        level = INF if np.any(~np.isfinite(a)) else (float(np.max(a)) if len(a) else 0.0)
        return SuperlevelSet(indices=(), target_measure=t, level=level)

    order, a = _descending_order(np.abs(u.values), np.arange(len(u)))  # ties by index
    acc = np.concatenate(([0.0], np.cumsum(u.weights[order])))
    # cut level: value of the cell of the rearrangement containing t
    j = int(np.searchsorted(acc[1:], t - MEASURE_ATOL, side="left"))
    level = float(a[min(j, len(a) - 1)])

    # everything strictly above the level is forced in; the samples equal
    # to it follow in index order, each taken while the measure stays
    # within t, so acc[k + i] is the measure before the i-th of them
    k = int(np.count_nonzero(a > level))
    m = int(np.count_nonzero(a == level))
    before, after = acc[k : k + m], acc[k + 1 : k + m + 1]
    done = before >= t - MEASURE_ATOL
    over = after > t + MEASURE_ATOL
    stop = np.flatnonzero(done | over)
    i = int(stop[0]) if len(stop) else m
    if i < m and not done[i]:
        raise NotAttainable(t, lower=float(before[i]), upper=float(after[i]))
    reached = float(acc[k + i])
    if abs(reached - t) > MEASURE_ATOL:
        raise NotAttainable(t, lower=reached, upper=reached)
    return SuperlevelSet(
        indices=tuple(sorted(order[: k + i].tolist())),
        target_measure=t,
        level=level,
    )
