"""Fundamental functions and rearrangement-invariant (quasi)norm evaluation.

Every norm is evaluated on the decreasing rearrangement, so rearrangement
invariance holds by construction.  Cell sums against power and affine
pieces of the fundamental function are closed-form; suprema of
``M_p u*(t) phi(t)`` over such pieces are attained at piece endpoints, so
grid maxima over merged breakpoints are exact.  Only log-power and
Orlicz-inverse shapes fall back to panel quadrature.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateRatio,
    NotQuasiconcave,
    UnsupportedCombination,
)
from .rearrange import (
    INF,
    GridFn,
    WeightedSamples,
    _integrals_rows,
    decreasing_rearrangement,
    indicator_gridfn,
)

_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(24)


def geometric_grid(lo, hi, n):
    """Geometric grid of n points from lo to hi inclusive."""
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    return np.geomspace(lo, hi, n)


DEFAULT_SUP_POINTS = 512


def _positive_cap(cap):
    """The cap as a float; ValueError unless it is positive (inf allowed)."""
    cap = float(cap)
    if not cap > 0:
        raise ValueError(f"cap must be positive, got {cap!r}")
    return cap


# ---------------------------------------------------------------------------
# fundamental functions
# ---------------------------------------------------------------------------


class FundamentalFn:
    """Base class for quasi-concave fundamental-function shapes.

    Concrete shapes are built with the factory methods ``power``,
    ``power_log``, ``orlicz_inverse`` and ``sampled``.  Each shape is held
    constant beyond ``cap`` (the measure proxy of the underlying space).
    """

    cap = INF

    # factories -------------------------------------------------------------

    @staticmethod
    def power(alpha, coeff=1.0, cap=INF):
        return PowerPhi(alpha, coeff, cap)

    @staticmethod
    def power_log(alpha, beta, coeff=1.0, cap=INF):
        return PowerLogPhi(alpha, beta, coeff, cap)

    @staticmethod
    def orlicz_inverse(orlicz, cap=INF):
        return OrliczInversePhi(orlicz, cap)

    @staticmethod
    def sampled(ts, vals, cap=None):
        """Piecewise-linear shape through (0, 0) and the nodes (ts, vals)."""
        return SampledPhi(ts, vals, cap)

    # shape protocol ----------------------------------------------------------

    def __call__(self, t):
        raise NotImplementedError

    def kinks(self, lo, hi):
        """Interior breakpoints of the shape within (lo, hi)."""
        return np.empty(0)

    def pieces(self, lo, hi):
        """Yield (a, b, kind, params) pieces covering (lo, hi).

        kind is one of "power" (params (coeff, alpha)), "affine"
        (params (c, m)) or "generic" (params = callable).
        """
        raise NotImplementedError

    def power_exponent(self):
        """(coeff, alpha) when the shape is a pure power with cap inf."""
        return None

    def phi0plus(self):
        return 0.0

    def value_inf(self):
        """Limit at +inf (inf for uncapped growing shapes)."""
        if math.isfinite(self.cap):
            return float(self(self.cap))
        return INF

    def eval_grid(self, lo, hi):
        """256 geometric points on [lo, hi] with the endpoints and kinks."""
        pts = [np.asarray([lo, hi], dtype=float), self.kinks(lo, hi)]
        pts.append(geometric_grid(lo, hi, 256))
        g = np.unique(np.concatenate(pts))
        return g[(g >= lo) & (g <= hi)]


class PowerPhi(FundamentalFn):
    """phi(t) = coeff * min(t, cap)^alpha, alpha in [0, 1]."""

    def __init__(self, alpha, coeff=1.0, cap=INF):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("power shape needs alpha in [0, 1]")
        if coeff <= 0:
            raise ValueError("coeff must be positive")
        self.alpha = float(alpha)
        self.coeff = float(coeff)
        self.cap = _positive_cap(cap)

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.cap)
        with np.errstate(divide="ignore"):
            out = self.coeff * np.where(t > 0, t ** self.alpha, 0.0)
        return out if out.ndim else float(out)

    def kinks(self, lo, hi):
        if lo < self.cap < hi:
            return np.asarray([self.cap])
        return np.empty(0)

    def pieces(self, lo, hi):
        a = lo
        if a < self.cap:
            b = min(hi, self.cap)
            yield (a, b, "power", (self.coeff, self.alpha))
            a = b
        if a < hi:
            yield (a, hi, "affine", (float(self(self.cap)), 0.0))

    def power_exponent(self):
        if math.isinf(self.cap):
            return (self.coeff, self.alpha)
        return None

    def phi0plus(self):
        return self.coeff if self.alpha == 0.0 else 0.0

    def value_inf(self):
        if math.isfinite(self.cap):
            return float(self(self.cap))
        return self.coeff if self.alpha == 0.0 else INF


class PowerLogPhi(FundamentalFn):
    """phi(t) = coeff * t^alpha |log t|^beta near 0, frozen past t_switch.

    The switch point is the largest t where both monotonicity requirements
    of quasi-concavity still hold; beyond it the shape is constant.
    """

    def __init__(self, alpha, beta, coeff=1.0, cap=INF):
        if not 0.0 < alpha < 1.0:
            raise ValueError("power-log shape needs alpha in (0, 1)")
        if coeff <= 0:
            raise ValueError("coeff must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.coeff = float(coeff)
        t_sw = math.exp(-1.0)
        if beta > 0:
            t_sw = min(t_sw, math.exp(-beta / alpha))
        elif beta < 0:
            t_sw = min(t_sw, math.exp(beta / (1.0 - alpha)))
        self.t_switch = t_sw
        self.cap = _positive_cap(cap)

    def _raw(self, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.coeff * t ** self.alpha * np.abs(np.log(t)) ** self.beta

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.cap)
        t_eff = np.minimum(t, self.t_switch)
        out = np.where(t_eff > 0, self._raw(np.maximum(t_eff, 1e-300)), 0.0)
        return out if out.ndim else float(out)

    def kinks(self, lo, hi):
        ks = [k for k in (self.t_switch, self.cap) if lo < k < hi]
        return np.asarray(ks)

    def pieces(self, lo, hi):
        a = lo
        if a < self.t_switch:
            b = min(hi, self.t_switch)
            yield (a, b, "generic", self.__call__)
            a = b
        if a < hi:
            yield (a, hi, "affine", (float(self(self.t_switch)), 0.0))

    def value_inf(self):
        return float(self(min(self.t_switch, self.cap)))


class OrliczN:
    """Sampled convex increasing N-function candidate through (0, 0).

    Piecewise linear between nodes, extended past the last node with the
    final slope.  Convexity of the samples is validated.
    """

    def __init__(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        if xs.ndim != 1 or len(xs) != len(ys) or len(xs) < 1:
            raise ValueError("need matching nonempty sample arrays")
        if xs[0] <= 0 or np.any(np.diff(xs) <= 0):
            raise ValueError("sample abscissae must be positive increasing")
        if np.any(ys <= 0) or np.any(np.diff(ys) <= 0):
            raise ValueError("sample values must be positive increasing")
        self.xs = np.concatenate(([0.0], xs))
        self.ys = np.concatenate(([0.0], ys))
        slopes = np.diff(self.ys) / np.diff(self.xs)
        if np.any(np.diff(slopes) < -1e-12 * np.max(slopes)):
            raise ValueError("samples are not convex")
        self.slopes = slopes

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.interp(x, self.xs, self.ys)
        over = x > self.xs[-1]
        if np.any(over):
            out = np.where(
                over, self.ys[-1] + self.slopes[-1] * (x - self.xs[-1]), out
            )
        return out

    def inverse(self, y):
        y = np.asarray(y, dtype=float)
        out = np.interp(y, self.ys, self.xs)
        over = y > self.ys[-1]
        if np.any(over):
            out = np.where(
                over, self.xs[-1] + (y - self.ys[-1]) / self.slopes[-1], out
            )
        return out

    def to_dict(self):
        return {"x": list(map(float, self.xs[1:])), "y": list(map(float, self.ys[1:]))}

    @classmethod
    def from_dict(cls, d):
        return cls(d["x"], d["y"])


class OrliczInversePhi(FundamentalFn):
    """phi(t) = 1 / Psi^{-1}(1 / t), the Orlicz fundamental function."""

    def __init__(self, orlicz: OrliczN, cap=INF):
        self.orlicz = orlicz
        self.cap = _positive_cap(cap)

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.cap)
        t = np.maximum(t, 1e-300)
        inv = self.orlicz.inverse(1.0 / t)
        out = np.where(np.asarray(t) > 1e-299, 1.0 / np.maximum(inv, 1e-300), 0.0)
        return out if out.ndim else float(out)

    def kinks(self, lo, hi):
        ks = 1.0 / self.orlicz.ys[1:][::-1]
        ks = ks[(ks > lo) & (ks < hi)]
        if lo < self.cap < hi:
            ks = np.append(ks, self.cap)
        return np.sort(ks)

    def pieces(self, lo, hi):
        cut = min(hi, self.cap)
        pts = np.unique(np.concatenate(([lo, cut], self.kinks(lo, cut))))
        for a, b in zip(pts[:-1], pts[1:]):
            yield (a, b, "generic", self.__call__)
        if cut < hi:
            yield (cut, hi, "affine", (float(self(self.cap)), 0.0))


class SampledPhi(FundamentalFn):
    """Piecewise-linear shape through (0, 0) and the given nodes.

    Constant at the last node value beyond ``cap`` (default: the last node).
    """

    def __init__(self, ts, vals, cap=None):
        ts = np.asarray(ts, dtype=float)
        vals = np.asarray(vals, dtype=float)
        if ts.ndim != 1 or len(ts) != len(vals) or len(ts) == 0:
            raise ValueError("need matching nonempty node arrays")
        if ts[0] <= 0 or np.any(np.diff(ts) <= 0):
            raise ValueError("node abscissae must be positive increasing")
        if np.any(vals < 0):
            raise ValueError("node values must be nonnegative")
        self.ts = np.concatenate(([0.0], ts))
        self.vals = np.concatenate(([0.0], vals))
        self.cap = float(ts[-1]) if cap is None else _positive_cap(cap)

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.cap)
        t = np.minimum(t, self.ts[-1])
        out = np.interp(t, self.ts, self.vals)
        return out if out.ndim else float(out)

    def kinks(self, lo, hi):
        ks = self.ts[1:-1]
        ks = ks[(ks > lo) & (ks < hi)]
        extra = [k for k in (self.ts[-1], self.cap) if lo < k < hi]
        return np.unique(np.concatenate((ks, np.asarray(extra))))

    def pieces(self, lo, hi):
        cut = min(hi, self.cap, self.ts[-1])
        idx0 = int(np.searchsorted(self.ts, lo, side="right")) - 1
        a = lo
        for i in range(max(idx0, 0), len(self.ts) - 1):
            if a >= cut:
                break
            b = min(self.ts[i + 1], cut)
            if b <= a:
                continue
            m = (self.vals[i + 1] - self.vals[i]) / (self.ts[i + 1] - self.ts[i])
            c = self.vals[i] - m * self.ts[i]
            yield (a, b, "affine", (c, m))
            a = b
        if a < hi:
            yield (a, hi, "affine", (float(self(self.cap)), 0.0))


class PsiMajorantPhi(FundamentalFn):
    """Grid rendering of psi(t) = t^{1/p} sup_{t<=s<=1} phi(s)/s^{1/p}.

    The inner supremum runs over the query point itself plus the base-grid
    points above it, which keeps the Marcinkiewicz-type norm identities
    exact on any evaluation grid containing this object's base grid.
    For t >= 1 the shape delegates to phi.
    """

    def __init__(self, phi: FundamentalFn, p, base_grid=None):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.phi = phi
        self.p = float(p)
        if base_grid is None:
            base_grid = geometric_grid(1e-8, 1.0, DEFAULT_SUP_POINTS)
        base_grid = np.asarray(base_grid, dtype=float)
        base = np.unique(np.concatenate(
            (base_grid, phi.kinks(float(np.min(base_grid)), 1.0), [1.0])))
        base = base[(base > 0) & (base <= 1.0)]
        self.base = base
        ratios = np.asarray(phi(base), dtype=float) / base ** (1.0 / p)
        # suffix maxima: best ratio at or above each base point
        self.suffix_max = np.maximum.accumulate(ratios[::-1])[::-1]
        self.cap = phi.cap

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.empty_like(t_arr)
        below = (t_arr > 0) & (t_arr < 1.0)
        at_zero = t_arr <= 0
        above = t_arr >= 1.0
        out[at_zero] = 0.0
        out[above] = np.asarray(self.phi(t_arr[above]), dtype=float)
        if np.any(below):
            tb = t_arr[below]
            own = np.asarray(self.phi(tb), dtype=float) / tb ** (1.0 / self.p)
            j = np.searchsorted(self.base, tb, side="right")
            grid_part = np.where(
                j < len(self.base), self.suffix_max[np.minimum(j, len(self.base) - 1)], 0.0
            )
            out[below] = tb ** (1.0 / self.p) * np.maximum(own, grid_part)
        return out if np.ndim(t) else float(out[0])

    def kinks(self, lo, hi):
        ks = self.base[(self.base > lo) & (self.base < hi)]
        more = self.phi.kinks(max(lo, 1.0), hi) if hi > 1.0 else np.empty(0)
        one = np.asarray([1.0]) if lo < 1.0 < hi else np.empty(0)
        return np.unique(np.concatenate((ks, more, one)))

    def pieces(self, lo, hi):
        cut = min(hi, 1.0)
        if lo < cut:
            pts = np.unique(np.concatenate(([lo, cut], self.kinks(lo, cut))))
            for a, b in zip(pts[:-1], pts[1:]):
                yield (a, b, "generic", self.__call__)
        if cut < hi:
            yield from self.phi.pieces(cut, hi)

    def value_inf(self):
        return self.phi.value_inf()

    def power_exponent(self):
        # psi coincides with phi beyond 1, so the growth at infinity is phi's
        return self.phi.power_exponent()

    def phi0plus(self):
        # t^{1/p} times a bounded supremum vanishes at 0 unless phi jumps
        return self.phi.phi0plus() if self.phi.phi0plus() > 0 else 0.0


# ---------------------------------------------------------------------------
# norm specifications
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class NormSpec:
    """Algebraic description of a rearrangement-invariant (quasi)norm.

    What differs between families is declared once, in ``_FAMILIES``.
    """

    family: str
    p: float | None = None
    q: float | None = None
    phi: FundamentalFn | None = None
    orlicz: OrliczN | None = None
    parts: tuple = ()

    def __post_init__(self):
        _family_of(self.family)

    @cached_property
    def quasi_only(self):
        """True when the functional may fail the triangle inequality."""
        return _FAMILIES[self.family].quasi(self)

    # -- constructors -------------------------------------------------------

    @classmethod
    def lp(cls, p):
        if p < 1:
            raise UnsupportedCombination("Lp requires p >= 1")
        return cls("lp", p=float(p))

    @classmethod
    def lorentz(cls, p, q):
        if p < 1 or q < 1:
            raise UnsupportedCombination("Lorentz requires p, q >= 1")
        if math.isinf(q):
            raise UnsupportedCombination("use lorentz_weak for q = inf")
        return cls("lorentz_pq", p=float(p), q=float(q))

    @classmethod
    def lorentz_weak(cls, p):
        if p < 1:
            raise UnsupportedCombination("weak Lorentz requires p >= 1")
        return cls("lorentz_pinf", p=float(p))

    @classmethod
    def lambda_phi(cls, phi):
        return cls("lambda_phi", phi=phi)

    @classmethod
    def lambda_q(cls, phi, q):
        if q < 1:
            raise UnsupportedCombination("Lambda^q requires q >= 1")
        return cls("lambda_q_phi", phi=phi, q=float(q))

    @classmethod
    def marcinkiewicz(cls, phi):
        return cls("marcinkiewicz", phi=phi)

    @classmethod
    def weak_marcinkiewicz(cls, phi):
        return cls("weak_marcinkiewicz", phi=phi)

    @classmethod
    def marcinkiewicz_p(cls, phi, p):
        if p < 1:
            raise UnsupportedCombination("M^p requires p >= 1")
        return cls("marcinkiewicz_p", phi=phi, p=float(p))

    @classmethod
    def marcinkiewicz_p_loc(cls, phi, p):
        if p < 1:
            raise UnsupportedCombination("M^p_loc requires p >= 1")
        return cls("marcinkiewicz_p_loc", phi=phi, p=float(p))

    @classmethod
    def orlicz_lux(cls, orlicz):
        return cls("orlicz_lux", orlicz=orlicz)

    @classmethod
    def intersection_max(cls, *parts):
        if not parts:
            raise UnsupportedCombination("intersection needs at least one part")
        return cls("intersection_max", parts=tuple(parts))

    # -- derived properties -------------------------------------------------

    @property
    def absolutely_continuous(self):
        """Whether the norm is absolutely continuous; None when undecidable."""
        return _FAMILIES[self.family].ac(self)

    def fundamental_phi(self):
        """Fundamental function of the space as a shape object."""
        return _FAMILIES[self.family].fundamental(self)

    def boyd_alpha_exact(self):
        """Exact upper Boyd index where the dilation norm has a closed form."""
        return _FAMILIES[self.family].boyd(self)

    def describe(self):
        return _FAMILIES[self.family].label.format(
            p=self.p, q=self.q, parts=", ".join(s.describe() for s in self.parts))

    # -- serialization --------------------------------------------------------

    def to_dict(self):
        fam = _FAMILIES[self.family]
        d = {"family": self.family, **{f: getattr(self, f) for f in fam.fields}}
        if fam.part is not None:
            d[fam.part] = _PART_CODECS[fam.part][0](getattr(self, fam.part))
        return d

    @classmethod
    def from_dict(cls, d):
        fam = _family_of(d["family"])
        args = {f: d[f] for f in fam.fields}
        if fam.part is not None:
            args[fam.part] = _PART_CODECS[fam.part][1](d[fam.part])
        return fam.make(**args)


class _LambdaQFundamental(FundamentalFn):
    """Fundamental function of Lambda^q_phi: (int_0^t phi^q ds/s)^{1/q}."""

    def __init__(self, phi, q):
        self.phi = phi
        self.q = float(q)
        self.cap = phi.cap

    def __call__(self, t):
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if _has_generic_piece(self.phi, 0.0, float(np.max(ts, initial=0.0))):
            out = self._swept(ts)
        else:
            out = _phi_weight_rows(self.phi, np.zeros(len(ts)), ts, self.q)
        out = np.where(np.isfinite(out), out, INF) ** (1.0 / self.q)
        return float(out[0]) if scalar else out

    def _swept(self, ts):
        """int_0^t phi^q ds/s at every t, swept over the sorted points.

        One head integral runs up to the smallest point; each gap between
        sorted neighbours (phi's kinks added, so no gap straddles one) is one
        row of a _gauss_log_rows batch; a cumulative sum joins them.
        """
        out = np.zeros(len(ts))
        pos = ts > 0
        if not np.any(pos):
            return out
        lo, hi = float(np.min(ts[pos])), float(np.max(ts))
        head = _phi_weight_integral(self.phi, 0.0, lo, self.q)
        if not math.isfinite(head):
            out[pos] = INF
            return out
        knots = np.unique(np.concatenate((ts[pos], self.phi.kinks(lo, hi))))
        gaps = _gauss_log_rows(
            lambda t, rows: np.asarray(self.phi(t.ravel()), dtype=float).reshape(t.shape)
            ** self.q, knots[:-1], knots[1:])
        cum = head + np.concatenate(([0.0], np.cumsum(gaps)))
        out[pos] = cum[np.searchsorted(knots, ts[pos])]
        return out

    def kinks(self, lo, hi):
        return self.phi.kinks(lo, hi)

    def pieces(self, lo, hi):
        yield (lo, hi, "generic", self.__call__)


class _MaxPhi(FundamentalFn):
    """Pointwise maximum of component shapes (IntersectionMax spaces)."""

    def __init__(self, phis):
        if any(p is None for p in phis):
            raise UnsupportedCombination("component without fundamental function")
        self.phis = list(phis)
        self.cap = max(p.cap for p in self.phis)

    def __call__(self, t):
        vals = [np.asarray(p(t), dtype=float) for p in self.phis]
        out = vals[0]
        for v in vals[1:]:
            out = np.maximum(out, v)
        return out if out.ndim else float(out)

    def kinks(self, lo, hi):
        ks = [p.kinks(lo, hi) for p in self.phis]
        # crossing points between pure-power components are breakpoints too
        cross = []
        powers = [p.power_exponent() for p in self.phis]
        for i in range(len(powers)):
            for j in range(i + 1, len(powers)):
                if powers[i] and powers[j] and powers[i][1] != powers[j][1]:
                    ci, ai = powers[i]
                    cj, aj = powers[j]
                    x = (ci / cj) ** (1.0 / (aj - ai))
                    if lo < x < hi:
                        cross.append(x)
        return np.unique(np.concatenate(ks + [np.asarray(cross)]))

    def pieces(self, lo, hi):
        pts = np.unique(np.concatenate(([lo, hi], self.kinks(lo, hi))))
        for a, b in zip(pts[:-1], pts[1:]):
            # probe strictly inside the piece; a geometric mean anchored
            # away from 0 picks the branch that dominates near the left end
            mid = math.sqrt(max(a, b * 1e-12) * b)
            vals = [float(p(mid)) for p in self.phis]
            k = int(np.argmax(vals))
            yield from _clip_pieces(self.phis[k].pieces(a, b), a, b)

    def phi0plus(self):
        return max(p.phi0plus() for p in self.phis)

    def power_exponent(self):
        # max of pure powers behaves like the steepest exponent at infinity
        pes = [p.power_exponent() for p in self.phis]
        if any(pe is None for pe in pes):
            return None
        return max(pes, key=lambda ce: (ce[1], ce[0]))

    def value_inf(self):
        return max(p.value_inf() for p in self.phis)


def _has_generic_piece(phi, lo, hi):
    """Whether phi needs quadrature (a "generic" piece) somewhere in (lo, hi)."""
    return any(kind == "generic" for (_, _, kind, _) in phi.pieces(lo, hi))


def _clip_pieces(pieces, lo, hi):
    for (a, b, kind, params) in pieces:
        a2, b2 = max(a, lo), min(b, hi)
        if a2 < b2:
            yield (a2, b2, kind, params)


def _phi_to_dict(phi):
    if isinstance(phi, PowerPhi):
        return {"form": "power", "alpha": phi.alpha, "coeff": phi.coeff,
                "cap": phi.cap if math.isfinite(phi.cap) else None}
    if isinstance(phi, SampledPhi):
        return {"form": "sampled", "t": list(map(float, phi.ts[1:])),
                "v": list(map(float, phi.vals[1:])), "cap": phi.cap}
    # these two forms write a cap only when it is finite
    if isinstance(phi, PowerLogPhi):
        d = {"form": "power_log", "alpha": phi.alpha, "beta": phi.beta,
             "coeff": phi.coeff}
    elif isinstance(phi, OrliczInversePhi):
        d = {"form": "orlicz_inverse", "orlicz": phi.orlicz.to_dict()}
    else:
        raise UnsupportedCombination(f"cannot serialize shape {type(phi).__name__}")
    if math.isfinite(phi.cap):
        d["cap"] = phi.cap
    return d


def _phi_from_dict(d):
    form = d["form"]
    if form == "power":
        cap = d.get("cap")
        return PowerPhi(d["alpha"], d.get("coeff", 1.0),
                        INF if cap is None else cap)
    if form == "power_log":
        return PowerLogPhi(d["alpha"], d["beta"], d.get("coeff", 1.0), d.get("cap", INF))
    if form == "orlicz_inverse":
        return OrliczInversePhi(OrliczN.from_dict(d["orlicz"]), d.get("cap", INF))
    if form == "sampled":
        return SampledPhi(d["t"], d["v"], d.get("cap"))
    raise UnsupportedCombination(f"unknown shape form {form!r}")


# ---------------------------------------------------------------------------
# norm families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """Everything that differs between norm families, declared once."""

    make: Callable          # public constructor, called with keyword arguments
    prefix: str | None      # CLI shorthand prefix; None: no shorthand
    fields: tuple           # numeric fields, in shorthand order
    part: str | None        # structural argument: "phi", "orlicz" or "parts"
    label: str              # describe() format over p, q and parts
    evaluate: Callable      # (decreasing rearrangement, spec) -> norm value
    ac: Callable            # spec -> absolutely continuous (None: unknown)
    quasi: Callable         # spec -> may fail the triangle inequality
    fundamental: Callable   # spec -> fundamental function shape
    boyd: Callable          # spec -> exact upper Boyd index, or None
    density: str | None = None  # density-report rule: "lorentz" (index rules
    # of L^(p,q), L^p = L^(p,p)), "weak", "weak-power" (weak if phi is a power)
    rows: Callable | None = None  # (decreasing rearrangement, spec, edge divisors
    # c) -> the norm of each dilate with edges / c_k; None: no row evaluator


def _sup_mp_family(p_of, window_hi):
    """evaluate and rows of a sup-M_p family: the norm is the row c = 1."""
    def rows(u, s, c):
        return _sup_mp_phi(u, s.phi, p_of(s), window_hi, c)
    return {"evaluate": lambda u, s: rows(u, s, _UNIT)[0], "rows": rows}


def _family_of(name):
    if name not in _FAMILIES:
        raise UnsupportedCombination(f"unknown family {name!r}")
    return _FAMILIES[name]


def _phi_index(spec):
    pe = spec.phi.power_exponent()
    return pe[1] if pe is not None else None


def _lambda_q_quasi(spec):
    # Lambda^q_phi is a genuine norm exactly when phi^q is quasi-concave
    hi = min(1.0, spec.phi.cap)
    return not is_quasiconcave(spec.phi, power=spec.q, window=(1e-8 * hi, hi)).ok


def _max_ac(spec):
    vals = {s.absolutely_continuous for s in spec.parts}
    return False if False in vals else None if None in vals else True


# structural arguments: (to_dict, from_dict) per kind
_PART_CODECS = {
    "phi": (_phi_to_dict, _phi_from_dict),
    "orlicz": (OrliczN.to_dict, OrliczN.from_dict),
    "parts": (lambda parts: [s.to_dict() for s in parts],
              lambda ds: [NormSpec.from_dict(d) for d in ds]),
}

_FAMILIES = {
    "lp": _Family(
        NormSpec.lp, "lp", ("p",), None, "L^{p:g}", lambda u, s: _norm_lp(u, s.p),
        ac=lambda s: not math.isinf(s.p), quasi=lambda s: False, density="lorentz",
        fundamental=lambda s: PowerPhi(1.0 / s.p), boyd=lambda s: 1.0 / s.p),
    "lorentz_pq": _Family(
        NormSpec.lorentz, "lorentz", ("p", "q"), None, "L^({p:g},{q:g})",
        lambda u, s: _norm_lorentz_pq(u, s.p, s.q),
        ac=lambda s: True, quasi=lambda s: s.q > s.p, density="lorentz",
        fundamental=lambda s: PowerPhi(1.0 / s.p), boyd=lambda s: 1.0 / s.p),
    "lorentz_pinf": _Family(
        NormSpec.lorentz_weak, "lorentz-weak", ("p",), None, "L^({p:g},inf)",
        lambda u, s: _sup_star_phi(u, PowerPhi(1.0 / s.p)),
        ac=lambda s: False, quasi=lambda s: True, density="weak",
        fundamental=lambda s: PowerPhi(1.0 / s.p), boyd=lambda s: 1.0 / s.p),
    "lambda_phi": _Family(
        NormSpec.lambda_phi, "lambda", (), "phi", "Lambda_phi",
        lambda u, s: _norm_lambda_phi(u, s.phi),
        ac=lambda s: True, quasi=lambda s: False,
        fundamental=lambda s: s.phi, boyd=_phi_index),
    "lambda_q_phi": _Family(
        NormSpec.lambda_q, "lambda-q", ("q",), "phi", "Lambda^{q:g}_phi",
        lambda u, s: _norm_lambda_q(u, s.phi, s.q),
        ac=lambda s: True, quasi=_lambda_q_quasi,
        fundamental=lambda s: _LambdaQFundamental(s.phi, s.q), boyd=_phi_index),
    "marcinkiewicz": _Family(
        NormSpec.marcinkiewicz, "marc", (), "phi", "M_phi",
        **_sup_mp_family(lambda s: 1.0, None),
        ac=lambda s: False, quasi=lambda s: False, density="weak-power",
        fundamental=lambda s: s.phi, boyd=_phi_index),
    "weak_marcinkiewicz": _Family(
        NormSpec.weak_marcinkiewicz, "weak-marc", (), "phi", "M*_phi",
        lambda u, s: _sup_star_phi(u, s.phi),
        ac=lambda s: False, quasi=lambda s: True, density="weak-power",
        fundamental=lambda s: s.phi, boyd=_phi_index),
    # the M^p fundamental shape dominates phi; equal iff phi^p is quasi-concave
    "marcinkiewicz_p": _Family(
        NormSpec.marcinkiewicz_p, "marc-p", ("p",), "phi", "M^{p:g}_phi",
        **_sup_mp_family(lambda s: s.p, None),
        ac=lambda s: False, quasi=lambda s: True,
        fundamental=lambda s: PsiMajorantPhi(s.phi, s.p), boyd=_phi_index),
    "marcinkiewicz_p_loc": _Family(
        NormSpec.marcinkiewicz_p_loc, "marc-p-loc", ("p",), "phi", "M^{p:g}_phi,loc",
        **_sup_mp_family(lambda s: s.p, 1.0),
        ac=lambda s: False, quasi=lambda s: True,
        fundamental=lambda s: PsiMajorantPhi(s.phi, s.p), boyd=lambda s: None),
    # no shorthand: the CLI reaches it through a JSON spec file
    "orlicz_lux": _Family(
        NormSpec.orlicz_lux, None, (), "orlicz", "L^Psi",
        lambda u, s: _norm_orlicz(u, s.orlicz),
        ac=lambda s: None, quasi=lambda s: False,
        fundamental=lambda s: OrliczInversePhi(s.orlicz), boyd=lambda s: None),
    # recurses through the module-level norm, so wrappers of it see each part
    "intersection_max": _Family(
        lambda parts: NormSpec.intersection_max(*parts), "max", (), "parts",
        "max({parts})", lambda u, s: max(norm(u, t) for t in s.parts),
        ac=_max_ac, quasi=lambda s: any(t.quasi_only for t in s.parts),
        fundamental=lambda s: _MaxPhi([t.fundamental_phi() for t in s.parts]),
        boyd=lambda s: None),
}


# ---------------------------------------------------------------------------
# norm evaluation
# ---------------------------------------------------------------------------


def _as_decreasing(u):
    if isinstance(u, WeightedSamples):
        return decreasing_rearrangement(u)
    if isinstance(u, GridFn):
        if u.is_decreasing():
            return u
        if u.tail > 0:
            raise UnsupportedCombination(
                "non-decreasing GridFn with positive tail cannot be rearranged"
            )
        widths = np.diff(u.edges)
        return decreasing_rearrangement(
            WeightedSamples(u.values, np.maximum(widths, 1e-300))
        )
    raise TypeError("norm input must be WeightedSamples or GridFn")


def norm(u, spec: NormSpec) -> float:
    """Evaluate the (quasi)norm of u in the given space.

    The input is rearranged internally, so the value is invariant under
    equimeasurable changes by construction.  Returns ``math.inf`` when the
    defining integral or supremum diverges.
    """
    return float(_FAMILIES[spec.family].evaluate(_as_decreasing(u), spec))


def _norm_lp(ustar, p):
    if math.isinf(p):
        return ustar.max_value()
    tot = ustar.total_integral(p)
    if not math.isfinite(tot):
        return INF
    return tot ** (1.0 / p)


def _norm_lorentz_pq(ustar, p, q):
    if ustar.tail > 0 or ustar.has_inf():
        return INF
    e = ustar.edges
    v = ustar.values
    if len(v) == 0:
        return 0.0
    terms = v ** q * np.diff(e ** (q / p))
    return float(np.sum(terms)) ** (1.0 / q)


def _norm_lambda_phi(ustar, phi):
    p0 = phi.phi0plus()
    if p0 > 0:
        mv = ustar.max_value()
        if not math.isfinite(mv):
            return INF
        head = p0 * mv
    else:
        head = 0.0
    e = ustar.edges
    v = ustar.values
    total = head
    if len(v):
        at_edges = np.asarray(phi(e), dtype=float)
        at_edges[0] = p0  # the jump at 0 is the atom already counted above
        dphi = np.diff(at_edges)
        finite = np.isfinite(v)
        if np.any(~finite & (dphi > 0)):
            return INF
        total += float(np.sum(v[finite] * dphi[finite]))
    if ustar.tail > 0:
        top = phi.value_inf()
        if not math.isfinite(top):
            return INF
        total += ustar.tail * (top - float(phi(ustar.support_end)))
    return total


def _phi_weight_integral(phi, a, b, q):
    """Exact-ish integral of phi(t)^q / t over (a, b); inf on divergence."""
    return _phi_weight_rows(phi, [a], [b], q)[0]


def _phi_weight_rows(phi, lo, hi, q):
    """int phi(t)^q / t over every interval (lo[i], hi[i]); inf on divergence."""
    return _power_integral_rows(phi, lo, hi, q, 0)


def _power_integral_rows(phi, lo, hi, r, s):
    """int phi(t)^r t^s dt/t over every interval (lo[i], hi[i]); inf on divergence.

    The one walker over a shape's pieces: the Lambda^q weights take r = q,
    s = 0 and criterion_B's segments r = -p, s = 1.  Closed-form pieces
    (_piece_integral) stay scalar; the other pieces of all intervals are one
    _gauss_log_rows batch, or a dyadic refinement from 0.  Each interval adds
    its pieces in order and stops at the first inf, so each value is
    bit-identical to integrating its interval alone whenever phi acts
    elementwise.
    """
    rows, fns, qa, qb = [], [], [], []
    with np.errstate(over="ignore"):  # a tiny exponent: past the float range, inf
        for a, b in zip(lo, hi):
            terms = []
            rows.append(terms)
            if b <= a:
                continue
            for (x0, x1, kind, params) in phi.pieces(a, b):
                term = _piece_integral(x0, x1, kind, params, r, s)
                if term is None and x0 > 0:  # a quadrature row of the batch
                    fns.append(params)
                    qa.append(x0)
                    qb.append(x1)
                elif term is None:  # a generic piece from 0
                    term = _dyadic_integral(
                        lambda t: np.asarray(params(t)) ** r / t ** (1 - s), x1)
                terms.append(term)
                if term is not None and not math.isfinite(term):
                    break
        quad = _gauss_log_rows(lambda t, rows: _rowwise(fns[rows], t) ** r * t ** s, qa, qb)
    return np.asarray(_sum_in_order(rows, quad))


def _piece_integral(x0, x1, kind, params, r, s):
    """int phi(t)^r t^s dt/t over one piece (x0, x1) in closed form, s = 0 or 1.

    A power piece c t^alpha gives c^r (x1^e - x0^e) / e with e = r alpha + s,
    c^r log(x1/x0) at e = 0, and inf from x0 = 0 when e <= 0.  An affine
    piece c + m t is the power m t when c = 0.  At s = 1 a constant c is the
    power c t^0, and c + m t has the closed form of int (c + m t)^r dt.  At
    s = 0, c + m t diverges from 0 like c^r / t, and elsewhere it takes
    quadrature, as a generic callable does: None.
    """
    if kind == "affine":
        c, m = params
        if c == 0.0:
            kind, params = "power", (m, 1.0)
        elif s == 0:
            return None if x0 > 0 else INF
        elif m == 0.0:
            kind, params = "power", (c, 0.0)
        else:
            e = r + 1
            if e == 0:
                return (math.log(c + m * x1) - math.log(c + m * x0)) / m
            return ((c + m * x1) ** e - (c + m * x0) ** e) / (m * e)
    if kind != "power":
        return None
    c, alpha = params
    if c == 0.0:  # phi vanishes on the piece
        return 0.0 if r > 0 else INF
    e = s + r * alpha
    if x0 <= 0 and e <= 0:
        return INF
    if e == 0:
        return c ** r * math.log(x1 / x0)
    lo_term = x0 ** e if x0 > 0 else 0.0
    return c ** r * (x1 ** e - lo_term) / e


def _rowwise(fns, t):
    """fns[i] at the nodes t[i] of every row of the 2-D array t.

    An entry is a shape callable, run once on all its rows, or the pair
    (c, m) of an affine piece c + m t.
    """
    out = np.empty(t.shape)
    groups = {}
    for i, fn in enumerate(fns):
        groups.setdefault(fn if callable(fn) else None, []).append(i)
    for fn, rows in groups.items():
        if fn is None:
            c, m = np.asarray([fns[i] for i in rows], dtype=float).T
            out[rows] = c[:, None] + m[:, None] * t[rows]
        else:
            out[rows] = np.asarray(fn(t[rows].ravel()), dtype=float).reshape(len(rows), -1)
    return out


def _sum_in_order(rows, quad):
    """Each row's terms added in order; a None term takes the next quad value."""
    values = iter(quad)
    sums = []
    for terms in rows:
        total = 0.0
        for x in terms:
            total += next(values) if x is None else x
        sums.append(total)
    return sums


# intervals per integrand call: bounds the node arrays at about 1.5 MB
_GAUSS_BLOCK = 2048


def _gauss_log_rows(f, a, b, panels=4):
    """Integral of f(t)/t over every interval (a[i], b[i]), 0 < a[i] <= b[i].

    ``panels`` equal pieces of log t per interval, 24 Gauss-Legendre nodes
    each.  ``f(t, rows)`` runs once per block of up to _GAUSS_BLOCK
    intervals: ``rows`` slices the intervals, row k of t holds the nodes of
    interval rows[k], and f returns values in t's shape.  Panels are summed
    over their nodes without a BLAS dot and added in order, so each row is
    bit-identical to integrating its interval alone, panel by panel,
    whenever f acts elementwise.
    """
    if not len(a):
        return np.zeros(0)
    # the C library's log, one endpoint at a time: numpy's vector log can
    # round a last ulp apart from it
    la, lb = np.array([(math.log(x), math.log(y)) for x, y in zip(a, b)]).T
    # np.linspace(la, lb, panels + 1) row by row: k * step + la, then lb
    cuts = np.arange(panels + 1.0) * ((lb - la) / panels)[:, None] + la[:, None]
    cuts[:, -1] = lb
    lo, hi = cuts[:, :-1], cuts[:, 1:]
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    out = np.zeros(len(la))
    for start in range(0, len(la), _GAUSS_BLOCK):
        rows = slice(start, start + _GAUSS_BLOCK)
        h = half[rows]
        t = np.exp(mid[rows, :, None] + h[:, :, None] * _GAUSS_X)
        vals = np.asarray(f(t.reshape(len(t), -1), rows), dtype=float).reshape(t.shape)
        sums = h * np.add.reduce(_GAUSS_W * vals, axis=2)
        acc = out[rows]
        for panel in sums.T:
            acc += panel
    return out


def _dyadic_integral(g, b):
    """Integral of g over (0, b) by dyadic refinement toward 0.

    Divergence is classified by the refinement-doubling rule: either the
    accumulated value doubles across two consecutive refinements, or the
    per-level pieces stop decaying geometrically (the borderline 1/t case).
    Otherwise the geometric tail of the remaining levels is extrapolated,
    once it falls below 1e-13 of the total; refinement stops after 200
    levels.
    """
    total = 0.0
    hi = b
    doublings = 0
    flat = 0
    prev_total = 0.0
    prev_piece = None
    for level in range(200):
        lo = hi / 2.0
        piece = _gauss_log_rows(lambda t, rows: np.asarray(g(t[0])) * t[0], [lo], [hi],
                                panels=1)[0]
        total += piece
        if prev_total > 0 and total >= 2.0 * prev_total:
            doublings += 1
            if doublings >= 2:
                return INF
        else:
            doublings = 0
        if prev_piece is not None and prev_piece > 0:
            ratio = piece / prev_piece
            if ratio >= 0.999:
                flat += 1
                if flat >= 2 and level >= 4:
                    return INF
            else:
                flat = 0
                tail_est = piece * ratio / (1.0 - ratio) if ratio > 0 else 0.0
                if tail_est < 1e-13 * max(total, 1e-300):
                    return total + tail_est
        prev_total = total
        prev_piece = piece
        hi = lo
    return total


def _norm_lambda_q(ustar, phi, q):
    """(sum_i v_i^q int_cell_i phi^q dt/t)^{1/q} over the cells of u*.

    All nonzero cells' weights are one _phi_weight_rows batch, summed in
    cell order: bit-identical to weighting one cell at a time.
    """
    if ustar.tail > 0:
        return INF
    e = ustar.edges
    v = ustar.values
    cells = np.flatnonzero(v != 0.0)
    total = 0.0
    for i, w in zip(cells, _phi_weight_rows(phi, e[cells], e[cells + 1], q)):
        if not math.isfinite(w):
            return INF
        if not math.isfinite(v[i]):
            if w > 0:
                return INF
            continue
        total += v[i] ** q * w
    return total ** (1.0 / q)


def _sup_star_phi(ustar, phi):
    """sup_t u*(t) phi(t): exact (phi increasing on each constant cell).

    ``phi`` is evaluated once, on the array of right cell edges.
    """
    v = ustar.values
    pv = np.asarray(phi(ustar.edges[1:]), dtype=float)
    best = float(_masked_sup(v, pv, [0])[0]) if len(v) else 0.0
    if ustar.tail > 0:
        top = phi.value_inf()
        if not math.isfinite(top):
            return INF
        best = max(best, ustar.tail * top)
    return best


def _masked_sup(vals, phis, starts):
    """Per nonempty run vals[starts[k]:starts[k + 1]]: max(0, sup of vals * phis
    over finite vals), or inf where an infinite val meets phis > 0.  Nan
    products are skipped, as ``max(best, x)`` skips them.
    """
    finite = np.isfinite(vals)
    prods = np.where(phis > 0, INF, 0.0)  # read only where vals are infinite
    prods[finite] = vals[finite] * phis[finite]
    return np.fmax(np.fmax.reduceat(prods, starts), 0.0)


def _mp_rows(ustar, p, edges, ts, counts):
    """M_p u*(t) = ((1/t) int_0^t u*^p)^{1/p} at the points of each row of
    edges, laid out as for ``rearrange._integrals_rows``."""
    ints = _integrals_rows(edges, ustar.values, ustar.tail, ts, counts, p)
    with np.errstate(invalid="ignore"):
        return np.where(np.isfinite(ints), (ints / ts) ** (1.0 / p), INF)


def _mp_values(ustar, p, ts):
    """M_p u*(t) at the given points: ``_mp_rows`` on ustar's own edges."""
    return _mp_rows(ustar, p, ustar.edges[None], ts, [len(ts)])


# the edge divisor of a plain norm: edges / 1.0 is exact
_UNIT = np.ones(1)


def _sup_mp_phi(ustar, phi, p, window_hi, c):
    """sup over the window of M_p u*(t) phi(t), once per edge divisor c_k.

    Row k is the value for ``GridFn(ustar.edges / c_k, ustar.values,
    ustar.tail)``, bit for bit, so a norm is the row c = 1 (``_UNIT``) and
    the dilations E_{1/s} of one function take c = 1/s in the same array
    pass.  Exact for power/affine phi.  ``window_hi=None`` is the global
    norm (sup over t > 0); otherwise the sup runs over (0, window_hi].  It
    is taken at the points of ``_sup_points``, plus limit candidates.
    """
    c = np.asarray(c, dtype=float)
    if ustar.ncells == 0 and ustar.tail == 0:
        return np.zeros(len(c))
    edges = ustar.edges[None] / c[:, None]
    ts, counts, starts = _sup_points(ustar, phi, window_hi, edges)
    phis = np.asarray(phi(ts), dtype=float)
    mps = _mp_rows(ustar, p, edges, ts, counts.tolist())
    best = _masked_sup(mps, phis, starts)
    # limit candidate as t -> 0+
    first = ustar.values[0] if ustar.ncells else ustar.tail
    p0 = phi.phi0plus()
    if p0 > 0:
        if not math.isfinite(first):
            return np.full(len(c), INF)
        best = np.maximum(best, first * p0)
    if window_hi is not None:
        return best
    # tail behaviour for the global norm
    tails = _mp_tail_rows(ustar, phi, p, c)
    return np.where(np.isfinite(tails), np.maximum(best, tails), INF)


def _sup_points(ustar, phi, window_hi, edges):
    """The points where ``_sup_mp_phi`` takes each row's supremum.

    Row k's points are its cell edges, phi's kinks, the window end hi_k and
    1, kept where they lie in (0, hi_k], plus a geometric grid where phi has
    a generic piece.  All of them are positive, and duplicates stay, since
    a maximum ignores them.  Returns the points of row 0, then row 1, and
    so on, with each row's count and the index where its points start.
    """
    rows, ncells = len(edges), ustar.ncells
    ends = edges[:, -1]
    hi = np.maximum(ends, 1.0)
    if math.isfinite(phi.cap):
        hi = np.maximum(hi, phi.cap)
    hi = 2.0 * hi if window_hi is None else np.full(rows, float(window_hi))
    # kinks are a fixed set cut to (lo, hi), so one call serves every row
    kinks = phi.kinks(0.0, float(hi.max()))
    generic = [_has_generic_piece(phi, 1e-12, max(1.0, e, 2.0)) for e in ends]
    grid = DEFAULT_SUP_POINTS if any(generic) else 0
    ts = np.empty((rows, ncells + len(kinks) + 2 + grid))
    ts[:, :ncells] = edges[:, 1:]
    ts[:, ncells:-grid - 2] = kinks
    ts[:, -grid - 2] = hi
    ts[:, -grid - 1] = 1.0
    if grid:
        lo = np.minimum(edges[:, 1] if ncells else hi, hi) * 1e-6
        ts[:, -grid:] = np.geomspace(np.maximum(lo, hi * 1e-14), hi, grid, axis=1)
    keep = ts <= hi[:, None]
    if grid and not all(generic):
        keep[np.logical_not(generic), -grid:] = False
    counts = keep.sum(axis=1)
    return ts[keep], counts, counts.cumsum() - counts


def _mp_tail_rows(ustar, phi, p, c):
    """Limit of M_p u*(t) phi(t) as t -> inf (0.0 when it vanishes), for
    the dilate with edges / c_k, per k.

    Only an unbounded phi and a u* without tail make it depend on the
    edges; edges / 1.0 is exact, so the row c = 1 is u* itself.
    """
    top = phi.value_inf()
    if ustar.tail > 0:
        # approached from above; sup candidates cover it
        return np.full(len(c), ustar.tail * top if math.isfinite(top) else INF)
    if math.isfinite(top):
        return np.zeros(len(c))  # (I/t)^{1/p} * (eventually constant phi) -> 0
    return np.array([_unbounded_tail(
        ustar if ck == 1.0 else GridFn(ustar.edges / ck, ustar.values), phi, p)
        for ck in c])


def _unbounded_tail(f, phi, p):
    """The limit of M_p f(t) phi(t) for an unbounded phi and f without tail."""
    pe = phi.power_exponent()
    if pe is not None and pe[1] < 1.0 / p:
        return 0.0  # t^{alpha - 1/p} I^{1/p} -> 0
    total = f.total_integral(p)
    if total == 0.0:
        return 0.0
    if pe is not None:
        c, alpha = pe
        if alpha > 1.0 / p:
            return INF
        return c * total ** (1.0 / p) if math.isfinite(total) else INF
    # no power form: probe far out, doubling rule
    t0 = 4.0 * max(f.support_end, 1.0)
    probes = [
        float(phi(t)) * (f.integral_to(t, p) / t) ** (1.0 / p)
        for t in (t0, 2 * t0, 4 * t0, 8 * t0, 16 * t0)
    ]
    if probes[-1] >= 2.0 * probes[-3] > 0:
        return INF
    if probes[-1] > probes[0] * 1.0000001 > 0:
        return INF  # still growing far beyond the support: treat as divergent
    return max(probes)


def _norm_orlicz(ustar, orlicz: OrliczN):
    if ustar.tail > 0 or ustar.has_inf():
        return INF
    v = ustar.values
    if len(v) == 0 or float(np.max(v)) == 0.0:
        return 0.0
    widths = np.diff(ustar.edges)

    def modular(lam):
        return float(np.sum(widths * orlicz.value(v / lam)))

    hi = float(np.max(v)) * max(1.0, float(np.sum(widths)))
    lo = hi
    while modular(lo) <= 1.0 and lo > 1e-300:
        hi = lo
        lo /= 2.0
    while modular(hi) > 1.0:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            return INF
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if modular(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-14 * hi:
            break
    return hi


# ---------------------------------------------------------------------------
# fundamental function evaluation, quasi-concavity, majorants
# ---------------------------------------------------------------------------


def fundamental_function(spec: NormSpec, t) -> float:
    """Norm of an indicator of measure t; closed forms where known."""
    t = float(t)
    if t <= 0:
        raise ValueError("t must be positive")
    fam = spec.family
    if fam in ("lp", "lorentz_pq", "lorentz_pinf"):
        return t ** (1.0 / spec.p)
    if fam == "orlicz_lux":
        return float(1.0 / max(spec.orlicz.inverse(1.0 / t), 1e-300))
    if fam == "intersection_max":
        return max(fundamental_function(s, t) for s in spec.parts)
    return norm(indicator_gridfn(t), spec)


@dataclass(frozen=True)
class QuasiconcavityVerdict:
    ok: bool
    witness: tuple | None = None
    reason: str = ""

    def __bool__(self):
        return self.ok


def is_quasiconcave(f, power=1.0, window=(1e-8, 1.0)):
    """Check f^power increasing and f^power / t decreasing on the window grid.

    ``f`` may be a GridFn (checked at its cell edges) or a fundamental
    function shape.  Both checks allow a relative slack of 1e-10.  On
    failure the violating pair (t1, t2) is returned.
    """
    rel_tol = 1e-10
    lo, hi = window
    if isinstance(f, GridFn):
        ts = f.edges[(f.edges > lo) & (f.edges <= hi)]
        if len(ts) == 0:
            ts = np.asarray([hi])
        vals = np.asarray(f.value_at(ts), dtype=float)
    else:
        ts = f.eval_grid(lo, hi)
        vals = np.asarray(f(ts), dtype=float)
    if np.any(~np.isfinite(vals)):
        k = int(np.argmax(~np.isfinite(vals)))
        return QuasiconcavityVerdict(False, (float(ts[k]), float(ts[k])),
                                     "not finite on window")
    if np.any(vals <= 0):
        k = int(np.argmax(vals <= 0))
        return QuasiconcavityVerdict(False, (float(ts[k]), float(ts[k])),
                                     "not strictly positive on window")
    g = vals ** power
    scale = float(np.max(g))
    ratios = g / ts
    for bad, reason in ((g[1:] < g[:-1] - rel_tol * scale, "power not increasing"),
                        (ratios[1:] > ratios[:-1] * (1.0 + rel_tol)
                         + rel_tol * scale / ts[1:], "power over t not decreasing")):
        if np.any(bad):
            i = int(np.argmax(bad))
            return QuasiconcavityVerdict(False, (float(ts[i]), float(ts[i + 1])),
                                         reason)
    return QuasiconcavityVerdict(True)


def least_concave_majorant(f: GridFn) -> GridFn:
    """Upper concave envelope over the grid nodes of a quasi-concave GridFn.

    The sandwich f <= out <= 2 f holds at every node (classical bound for
    quasi-concave functions); violation of the precondition raises.
    """
    verdict = is_quasiconcave(f, 1.0, (0.0, f.support_end))
    if not verdict.ok:
        raise NotQuasiconcave(verdict.witness, verdict.reason)
    xs = f.edges
    ys = np.concatenate(([0.0], f.values))
    hull = [(xs[0], ys[0])]
    for x, y in zip(xs[1:], ys[1:]):
        hull.append((x, y))
        while len(hull) >= 3:
            (x0, y0), (x1, y1), (x2, y2) = hull[-3], hull[-2], hull[-1]
            # drop the middle point when it lies on or below the chord
            if (y1 - y0) * (x2 - x0) <= (y2 - y0) * (x1 - x0) + 1e-15 * abs(y2):
                hull.pop(-2)
            else:
                break
    hx = np.asarray([h[0] for h in hull])
    hy = np.asarray([h[1] for h in hull])
    out_vals = np.interp(xs[1:], hx, hy)
    out_vals = np.maximum(out_vals, f.values)
    tail = max(f.tail, float(out_vals[-1])) if f.tail > 0 else float(out_vals[-1])
    out = GridFn(xs, out_vals, tail=min(tail, 2 * f.tail) if f.tail > 0 else 0.0)
    if np.any(out_vals > 2.0 * f.values + 1e-12 * np.max(out_vals)):
        raise NotQuasiconcave(None, "envelope exceeds twice the input")
    return out


def psi_majorant_phi(phi: FundamentalFn, p, grid=None) -> PsiMajorantPhi:
    """The majorant shape of the local Marcinkiewicz-type norm (callable).

    Its supremum runs over ``grid`` (default: 512 geometric points on
    [1e-8, 1]) plus phi's kinks and 1.
    """
    return PsiMajorantPhi(phi, p, grid)


def psi_majorant(phi: FundamentalFn, p) -> GridFn:
    """The majorant sampled on its default base grid, as a GridFn.

    psi(0) = 0, psi(t) = t^{1/p} sup_{t<=s<=1} phi(s)/s^{1/p} on (0, 1],
    psi = phi beyond 1.  The cells end at the base points of
    ``psi_majorant_phi(phi, p)`` and the tail is frozen at phi(1).
    """
    shape = PsiMajorantPhi(phi, p)
    ts = shape.base
    vals = np.asarray(shape(ts), dtype=float)
    edges = np.concatenate(([0.0], ts))
    return GridFn(edges, vals, tail=float(phi(1.0)))


@dataclass(frozen=True)
class EmbeddingRatio:
    ratio: float
    bound: float
    norm_high: float
    norm_low: float


def lorentz_embedding_bound(q, p):
    """The embedding constant q^{1/q - 1/p} between Lambda^q and Lambda^p."""
    return q ** (1.0 / q - 1.0 / p)


def lorentz_embedding_ratio(u, phi, q, p) -> EmbeddingRatio:
    """||u||_{Lambda^p_phi} / ||u||_{Lambda^q_phi} with its guaranteed bound."""
    if not (1 <= q < p < INF):
        raise UnsupportedCombination("need 1 <= q < p < inf")
    n_hi = norm(u, NormSpec.lambda_q(phi, p))
    n_lo = norm(u, NormSpec.lambda_q(phi, q))
    if n_hi == 0.0 and n_lo == 0.0:
        raise DegenerateRatio("both Lorentz norms vanish")
    if not math.isfinite(n_lo):
        if not math.isfinite(n_hi):
            raise DegenerateRatio("both Lorentz norms diverge")
        ratio = 0.0
    else:
        ratio = n_hi / n_lo
    return EmbeddingRatio(
        ratio=ratio,
        bound=lorentz_embedding_bound(q, p),
        norm_high=n_hi,
        norm_low=n_lo,
    )
