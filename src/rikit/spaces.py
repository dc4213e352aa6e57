"""Fundamental functions and rearrangement-invariant (quasi)norm evaluation.

Every norm is evaluated on the decreasing rearrangement, so rearrangement
invariance holds by construction.  A shape is cut at its ``breaks`` into
pieces, each a power, a power-log head c t^a |log t|^b, an affine c + m t
or a generic callable.  Powers of phi integrate in closed form over power,
constant and affine pieces (except c + m t with c, m != 0 against dt/t),
and over power-log heads through the upper incomplete gamma function where
it converges; the other pieces (Orlicz and Lambda^q shapes) take panel
quadrature, and the psi-majorant is generic only where phi is.  Suprema of
``M_p u*(t) phi(t)`` over power and affine pieces are attained at piece
endpoints, so grid maxima over merged breakpoints are exact.  Each is taken
for one function in one array pass, with the limit at infinity read off the
power of an unbounded phi there.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from numbers import Real

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


def _breaks(points):
    """The finite positive points as sorted, unique Python floats."""
    return sorted({float(x) for x in points if 0.0 < x < INF})


# ---------------------------------------------------------------------------
# fundamental functions
# ---------------------------------------------------------------------------


class FundamentalFn:
    """Base class for quasi-concave fundamental-function shapes.

    Concrete shapes are built with the factory methods ``power``,
    ``power_log``, ``orlicz_inverse`` and ``sampled``.  Each shape is held
    constant beyond ``cap`` (the measure proxy of the underlying space).
    A shape sets its sorted ``breaks`` when built, and next to them its
    ``forms``: one (kind, params) per piece from 0 to inf, or None for a
    generic piece.  kind is "power" (params (coeff, alpha)), "power_log"
    (params (coeff, alpha, beta): coeff t^alpha |log t|^beta, on a piece
    below 1/e) or "affine" (params (c, m): c + m t).  ``times_pow2(k)`` is
    the shape times 2^k, exactly, and ``unit`` the one of those near 1 at 1.
    """

    cap = INF
    pow2 = 0  # the k of times_pow2 summed: this shape is 2^pow2 times the one built
    _scaled = ()  # the fields times_pow2 scales: values of phi, or component shapes

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

    def form(self, a):
        """(kind, params) of the piece that starts at or holds a > 0, or starts
        at a = 0; a generic piece is ("generic", the shape itself)."""
        return self.forms[bisect_right(self.breaks, a)] or ("generic", self.__call__)

    @cached_property
    def _break_array(self):
        """``breaks`` as read-only numpy floats, whose powers overflow to inf."""
        out = np.array(self.breaks, dtype=float)
        out.flags.writeable = False
        return out

    def kinks(self, lo, hi):
        """The breakpoints strictly inside (lo, hi), sorted, as a read-only array."""
        i = bisect_right(self.breaks, lo)
        return self._break_array[i:bisect_left(self.breaks, hi, i)]

    def pieces(self, lo, hi):
        """Yield (a, b, kind, params): (lo, hi) cut at the kinks, each with its ``form``."""
        cuts = [lo, *self.kinks(lo, hi), hi]
        for a, b, form in zip(cuts[:-1], cuts[1:], self.forms[bisect_right(self.breaks, lo):]):
            yield (a, b, *(form or ("generic", self.__call__)))

    def peaks(self, r):
        """The local maxima of phi(s) s^{-r}, 0 < r <= 1, inside the pieces.
        Power and affine pieces have none; a shape with a generic piece
        names its own, else UnsupportedCombination."""
        if _generic_start(self, 0.0, INF) < INF:
            raise UnsupportedCombination(f"no peak rule for {type(self).__name__}")
        return []

    def phi0plus(self):
        return 0.0

    def value_inf(self):
        """Limit at +inf (inf for uncapped growing shapes)."""
        if math.isfinite(self.cap):
            return float(self(self.cap))
        return INF

    def eval_grid(self, lo, hi, n=256):
        """n geometric points from lo to hi, both exact, and the kinks between."""
        return np.unique(np.concatenate((geometric_grid(lo, hi, n), self.kinks(lo, hi))))

    def times_pow2(self, k):
        """This shape times 2^k, exactly: ``_scaled`` and the forms' c (and m of c + m t)."""
        out = object.__new__(type(self))  # a copy, without the caches of this one
        vars(out).update((n, v) for n, v in vars(self).items()
                         if n not in ("unit", "_break_array"))
        for name in self._scaled:
            v = getattr(self, name)
            setattr(out, name, [s.times_pow2(k) for s in v] if isinstance(v, list)
                    else v.times_pow2(k) if hasattr(v, "times_pow2")
                    else np.ldexp(v, k) if isinstance(v, np.ndarray) else math.ldexp(v, k))
        out.pow2 += k
        out.forms = [form and (form[0], tuple(math.ldexp(v, k) if form[0] == "affine" or j == 0
                                              else v for j, v in enumerate(form[1])))
                     for form in self.forms]
        return out

    @cached_property
    def unit(self):
        """``_near_unit(self, 1)``, or the shape itself where phi(1) is 0 or not finite."""
        try:
            return _near_unit(self, 1.0)
        except UnsupportedCombination:
            return self


def _power_on(phi, a, b):
    """(c, alpha) when phi = c t^alpha on all of (a, b): no kink inside and
    the form "power".  Every power fact is read here: (0, first break) gives
    the power near zero, (last break, inf) the power at infinity."""
    if len(phi.kinks(a, b)):
        return None
    kind, params = phi.form(a)
    return params if kind == "power" else None


def _regular_head(phi, hi):
    """(b, alpha, beta) when phi is c t^alpha |log t|^beta on its first piece
    (0, b), a power reading beta = 0, and a constant on every piece from b
    to hi (hi <= b: the head alone); None otherwise.  Every power-log fact is
    read here, the power ones through _power_on."""
    b = (phi.breaks or [INF])[0]
    kind, params = phi.form(0.0)
    if kind == "power_log":
        head = params[1:]
    else:
        pc = _power_on(phi, 0.0, b)
        if pc is None:
            return None
        head = (pc[1], 0.0)
    if b < hi:
        tail = [_power_or_constant(phi, x0, x1) for x0, x1, _, _ in phi.pieces(b, hi)]
        if any(pc is None or pc[1] != 0.0 for pc in tail):
            return None
    return (b, *head)


def _power_or_constant(phi, a, b):
    """``_power_on`` on a piece (a, b), reading a constant c > 0 as (c, 0.0)."""
    kind, params = phi.form(a)
    if kind == "affine" and params[1] == 0.0 and params[0] > 0:
        return params[0], 0.0
    return _power_on(phi, a, b)


def _zippin_exponent(phi):
    """alpha with sup_t phi(st) / phi(t) = s^alpha for every s > 1, or None.

    It exists when every piece is a power or a constant and the largest
    exponent is on the first or the last piece: log phi is continuous and
    piecewise linear in log t, and an unbounded piece holds every window."""
    pcs = [_power_or_constant(phi, a, b) for a, b, _, _ in phi.pieces(0.0, INF)]
    if None in pcs:
        return None
    alphas = [pc[1] for pc in pcs]
    top = max(alphas)
    return top if top in (alphas[0], alphas[-1]) else None


class PowerPhi(FundamentalFn):
    """phi(t) = coeff * min(t, cap)^alpha, alpha in [0, 1]."""
    _scaled = ("coeff", "_top")

    def __init__(self, alpha, coeff=1.0, cap=INF):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("power shape needs alpha in [0, 1]")
        if coeff <= 0:
            raise ValueError("coeff must be positive")
        self.alpha = float(alpha)
        self.coeff = float(coeff)
        self.cap = _positive_cap(cap)
        self.breaks = _breaks([self.cap])
        self._top = float(self(self.cap))
        top = ("affine", (self._top, 0.0))
        self.forms = [("power", (self.coeff, self.alpha))] + [top] * len(self.breaks)

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.cap)
        with np.errstate(divide="ignore"):
            out = self.coeff * np.where(t > 0, t ** self.alpha, 0.0)
        return out if out.ndim else float(out)

    def phi0plus(self):
        return self.coeff if self.alpha == 0.0 else 0.0

    def value_inf(self):
        return self._top


class PowerLogPhi(FundamentalFn):
    """phi(t) = coeff * t^alpha |log t|^beta near 0, frozen past t_switch.

    The switch point is the largest t where both monotonicity requirements
    of quasi-concavity still hold; beyond it the shape is constant.
    """
    _scaled = ("coeff", "_top")

    def __init__(self, alpha, beta, coeff=1.0, cap=INF):
        if not 0.0 < alpha < 1.0:
            raise ValueError("power-log shape needs alpha in (0, 1)")
        if coeff <= 0:
            raise ValueError("coeff must be positive")
        self.alpha = float(alpha)
        self.beta = float(beta)
        self.coeff = float(coeff)
        self.t_switch = t_sw = min(math.exp(-1.0), math.exp(-beta / alpha) if beta > 0
                                   else math.exp(beta / (1.0 - alpha)))
        self.cap = _positive_cap(cap)
        self.breaks = _breaks([t_sw, self.cap])
        self._top = float(self(t_sw))
        head = ("power_log", (self.coeff, self.alpha, self.beta))
        self.forms = [head if a < min(t_sw, self.cap) else ("affine", (self._top, 0.0))
                      for a in [0.0, *self.breaks]]

    def _raw(self, t):
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.coeff * t ** self.alpha * np.abs(np.log(t)) ** self.beta

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.cap)
        t_eff = np.minimum(t, self.t_switch)
        out = np.where(t_eff > 0, self._raw(t_eff), 0.0)
        return out if out.ndim else float(out)

    def peaks(self, r):
        # in u = -log s, log(phi s^{-r}) = beta log u - (alpha - r) u is
        # concave for beta > 0, with its top at u = beta / (alpha - r)
        s = math.exp(-self.beta / (self.alpha - r)) if self.beta > 0 and self.alpha > r else 0.0
        return [s] if 0.0 < s < min(self.t_switch, self.cap) else []

    def value_inf(self):
        return self._top


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

    def times_pow2(self, k):
        """Psi(2^k x), exactly: its 1 / Psi^{-1}(1 / t) is 2^k times this one's."""
        out = copy.copy(self)
        out.xs, out.slopes = np.ldexp(self.xs, -k), np.ldexp(self.slopes, k)
        return out

    def to_dict(self):
        return {"x": list(map(float, self.xs[1:])), "y": list(map(float, self.ys[1:]))}

    @classmethod
    def from_dict(cls, d):
        return cls(d["x"], d["y"])


class OrliczInversePhi(FundamentalFn):
    """phi(t) = 1 / Psi^{-1}(1 / t), the Orlicz fundamental function."""
    _scaled = ("orlicz",)

    def __init__(self, orlicz: OrliczN, cap=INF):
        self.orlicz = orlicz
        self.cap = _positive_cap(cap)
        self.breaks = _breaks([*(1.0 / orlicz.ys[1:]), self.cap])
        # Psi runs through the origin with slope s_1 up to the first node
        # where its slope changes (everywhere if none does), so phi(t) =
        # 1 / Psi^{-1}(1 / t) = s_1 t from t = 1 / y there on
        bends = np.flatnonzero(orlicz.slopes != orlicz.slopes[0])
        linear_from = float(1.0 / orlicz.ys[bends[0]]) if bends.size else 0.0
        top = ("affine", (self.value_inf(), 0.0))
        line = ("power", (float(orlicz.slopes[0]), 1.0))
        self.forms = [top if a >= self.cap else line if a >= linear_from else None
                      for a in [0.0, *self.breaks]]

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), self.cap)
        with np.errstate(divide="ignore", over="ignore"):  # 0 at 0, past the floats, inf
            out = 1.0 / self.orlicz.inverse(1.0 / t)
        return out if out.ndim else float(out)

    def peaks(self, r):
        # where Psi runs with slope s from (x, y), phi = t / (A t + B) with
        # A = x - y / s and B = 1 / s; t^{1-r} / (A t + B) tops at
        # (1 - r) B / (r A) when A > 0, and only grows when A <= 0
        o, out = self.orlicz, []
        ends = [INF, *(1.0 / o.ys[1:-1]), 0.0]  # segment k: t from ends[k + 1] to ends[k]
        for k, (x, y, s) in enumerate(zip(o.xs.tolist(), o.ys.tolist(), o.slopes.tolist())):
            d = r * (x * s - y)  # r A / B, 0 where it underflows: no peak inside then
            t = (1.0 - r) / d if d > 0 else 0.0
            if ends[k + 1] < t < min(ends[k], self.cap):
                out.append(float(t))
        return out


class SampledPhi(FundamentalFn):
    """Piecewise-linear shape through (0, 0) and the given nodes.

    Constant at the last node value beyond ``cap`` (default: the last node).
    """
    _scaled = ("vals",)

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
        self.breaks = _breaks([*ts, self.cap])
        # c + m t from each node below min(cap, last node), constant from there
        flat, top = min(self.cap, float(ts[-1])), (float(self(self.cap)), 0.0)
        slopes = np.diff(self.vals) / np.diff(self.ts)
        lines = [*zip(self.vals[:-1] - slopes * self.ts[:-1], slopes)]
        self.forms = [("affine", lines[i] if a < flat else top)
                      for i, a in enumerate([0.0, *self.breaks])]

    def __call__(self, t):
        t = np.minimum(np.asarray(t, dtype=float), min(self.cap, self.ts[-1]))
        out = np.interp(t, self.ts, self.vals)
        return out if out.ndim else float(out)


class PsiMajorantPhi(FundamentalFn):
    """psi(t) = t^{1/p} sup_{t<=s<=hi} phi(s)/s^{1/p}, held at phi(hi) past
    hi: the fundamental function of M^p_{phi,loc} at hi = 1.

    The supremum runs over t and the candidates above it: phi's kinks, its
    ``peaks(1/p)`` and hi.  Between two candidates where phi is c t^alpha or
    a constant, psi is the larger of it and the best later ratio times
    t^{1/p}, cut where they cross; every other piece below hi is generic.
    """
    _scaled = ("phi", "_best", "_top")

    def __init__(self, phi: FundamentalFn, p, hi=1.0):
        if p < 1:
            raise ValueError("p must be >= 1")
        self.phi = phi
        self.p = float(p)
        r = 1.0 / self.p
        cands = np.array(_breaks([*phi.kinks(0.0, hi), *(x for x in phi.peaks(r) if x < hi),
                                  hi]))
        ratios = np.asarray(phi(cands), dtype=float) / cands ** r
        self._cands = cands
        self._best = np.maximum.accumulate(ratios[::-1])[::-1]  # at or above each candidate
        self._top = float(phi(hi))
        self.cap = min(phi.cap, hi)
        starts, self.forms = [], []
        for a, b, best in zip([0.0, *cands[:-1].tolist()], cands.tolist(), self._best.tolist()):
            pcs = [_power_or_constant(phi, a, b), (best, r)]
            for x0, _, i in _power_cuts(pcs, a, b):
                starts.append(x0)
                self.forms.append(None if i is None else ("power", pcs[i]))
        self.breaks = starts[1:] + [hi]
        self.forms.append(("affine", (self._top, 0.0)))

    def __call__(self, t):
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.where(t_arr >= self.cap, self._top, 0.0)
        below = (t_arr > 0) & (t_arr < self.cap)
        if np.any(below):
            tb = t_arr[below]
            own = np.asarray(self.phi(tb), dtype=float) / tb ** (1.0 / self.p)
            later = self._best[np.searchsorted(self._cands, tb, side="right")]
            out[below] = tb ** (1.0 / self.p) * np.maximum(own, later)
        return out if np.ndim(t) else float(out[0])

    def peaks(self, r):
        # psi s^{-r} is phi s^{-r}, a power, or the larger of the two
        return self.phi.peaks(r)

    def phi0plus(self):
        # phi(t) <= psi(t) <= max(phi(e), phi(1) (t/e)^{1/p}) for every e > t
        return self.phi.phi0plus()


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
        _checked_args(self.family, vars(self))

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
        args = {f: d.get(f) for f in fam.fields}
        if d.get(fam.part) is not None:
            try:
                args[fam.part] = _PART_CODECS[fam.part][1](d[fam.part])
            except (KeyError, TypeError) as err:  # a field missing or of the wrong kind
                raise UnsupportedCombination(f"{d['family']}: malformed {fam.part}: {err}") from err
        return fam.make(**_checked_args(d["family"], args))


def _lambda_q_fundamental(spec):
    """Fundamental shape of Lambda^q_phi.  Where phi = c t^alpha on all of
    (0, inf) the space is L^(1/alpha,q), and its fundamental is the power
    (c^q / (q alpha))^{1/q} t^alpha; UnsupportedCombination where that is
    infinite (alpha = 0) or its coefficient passes the float range."""
    pc = _power_on(spec.phi, 0.0, INF)
    if pc is None:
        return _LambdaQFundamental(spec.phi, spec.q)
    scale = (spec.q * pc[1]) ** (1.0 / spec.q)
    if not (scale > 0 and pc[0] / scale < INF):
        raise UnsupportedCombination("Lambda^q over this power has no finite fundamental function")
    return PowerPhi(pc[1], pc[0] / scale)


class _LambdaQFundamental(FundamentalFn):
    """Fundamental function of Lambda^q_phi: W(t) = (int_0^t phi^q ds/s)^{1/q}.
    W of 2^k phi is 2^k W, so W is taken over phi's ``unit``, whose powers
    stay in the float range where phi's may not, and scaled back exactly."""
    _scaled = ("phi",)

    def __init__(self, phi, q):
        self.phi = phi
        self.q = float(q)
        self.cap = phi.cap
        self.breaks = phi.breaks
        self.forms = [None] * (len(phi.breaks) + 1)

    def __call__(self, t):
        """The fundamental at every t, swept over the sorted points.

        The integrals of phi^q dt/t from 0 to the smallest point and between
        sorted neighbours are one _power_integral_rows batch, joined by a
        cumulative sum: closed-form pieces stay closed form however far
        apart the points lie.
        """
        scalar = np.ndim(t) == 0
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.zeros(len(ts))
        pos = ts > 0
        unit = self.phi.unit
        if np.any(pos):
            knots, back = np.unique(ts[pos], return_inverse=True)
            gaps = _power_integral_rows(unit, np.concatenate(([0.0], knots[:-1])), knots,
                                        self.q, 0)
            out[pos] = np.cumsum(gaps)[back]
        out = np.ldexp(out ** (1.0 / self.q), self.phi.pow2 - unit.pow2)
        return float(out[0]) if scalar else out


def _power_cuts(pcs, a, b):
    """Yield (x0, x1, i): (a, b) cut where the powers c t^alpha of ``pcs``
    cross (none past the floats), with the index i of the one on top
    between; one uncut piece with i None where any of pcs is None.

    A crossing at a or b may round a few ulps inside: no cut where the two
    powers agree to 8 ulps all the way from it to a or b."""
    if None in pcs:
        yield a, b, None
        return
    with np.errstate(divide="ignore", over="ignore"):  # a zero coefficient: no crossing
        cross = [((np.float64(ci) / cj) ** (1.0 / (aj - ai)), aj - ai)
                 for (ci, ai), (cj, aj) in combinations(pcs, 2) if ai != aj]
    ends = _breaks(x for x, d in cross if a < x < b and all(
        abs(d * math.log(x / e)) > 8 * np.finfo(float).eps for e in (a, b) if 0 < e < INF))
    for x0, x1 in zip([a, *ends], [*ends, b]):
        # no two cross inside (x0, x1): compare them at one point there
        t = (math.sqrt(x0) * math.sqrt(x1) if 0 < x0 and x1 < INF
             else x1 / 2 if x1 < INF else 2 * x0 or 1.0)
        yield x0, x1, max(range(len(pcs)), key=lambda i: pcs[i][0] * t ** pcs[i][1])


class _MaxPhi(FundamentalFn):
    """Pointwise maximum of component shapes (IntersectionMax spaces).

    Where every component is a power or a constant between their merged
    breaks, their crossings are breaks too (none past the floats) and a
    piece takes the form of the component on top; elsewhere it is generic.
    """
    _scaled = ("phis",)

    def __init__(self, phis):
        self.phis = list(phis)
        self.cap = max(p.cap for p in self.phis)
        cuts = [0.0, *_breaks(x for p in self.phis for x in p.breaks), INF]
        starts, self.forms = [], []
        for a, b in zip(cuts[:-1], cuts[1:]):
            for x0, _, i in _power_cuts([_power_or_constant(p, a, b) for p in self.phis], a, b):
                starts.append(x0)
                self.forms.append(None if i is None else self.phis[i].form(x0))
        self.breaks = starts[1:]

    def __call__(self, t):
        out = np.max([np.asarray(p(t), dtype=float) for p in self.phis], axis=0)
        return out if out.ndim else float(out)

    def peaks(self, r):
        # a local maximum of the larger is one of the component on top
        return sorted({x for p in self.phis for x in p.peaks(r)})

    def phi0plus(self):
        return max(p.phi0plus() for p in self.phis)

    def value_inf(self):
        return max(p.value_inf() for p in self.phis)


def _near_unit(phi, t):
    """phi times the power of two nearest 1 / phi(t), exactly (phi itself at
    2^0), over which a ratio that c phi leaves unchanged stays in the float
    range; UnsupportedCombination where phi(t) is 0 or not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        at = float(phi(t))
    if not 0.0 < at < INF:
        raise UnsupportedCombination(f"the shape is {at!r} at {t!r}, outside the float range")
    k = -round(math.log2(at))
    return phi if k == 0 else phi.times_pow2(k)


def _generic_start(phi, lo, hi):
    """Where phi's first piece in (lo, hi) that is no power and not affine
    starts (inf: none); a power-log head counts, as a generic piece does.

    A form depends on its piece alone, so phi has no endpoint rule somewhere
    in (lo, h), for any h <= hi, exactly when h exceeds this start.
    """
    return next((a for (a, _, kind, _) in phi.pieces(lo, hi)
                 if kind not in ("power", "affine")), INF)


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
    lorentz_q: Callable = lambda s, a: None  # (spec, a) -> q0: the space is
    # L^(1/a,q0) near 0 wherever its fundamental is c t^a there; None: no index


def _family_of(name):
    if name not in _FAMILIES:
        raise UnsupportedCombination(f"unknown family {name!r}")
    return _FAMILIES[name]


def _checked_args(family, args):
    """args, once the family's numeric fields in them are real numbers and
    its part is what the family holds; else UnsupportedCombination naming
    the field."""
    fam = _family_of(family)
    for f in fam.fields:
        x = args.get(f)
        if isinstance(x, bool) or not isinstance(x, Real) or x != x:
            raise UnsupportedCombination(f"{family} needs a real number {f}, not {x!r}")
    if fam.part is not None and not _PART_CODECS[fam.part][2](args.get(fam.part)):
        raise UnsupportedCombination(
            f"{family} needs {fam.part}: {_PART_CODECS[fam.part][3]}, not {args.get(fam.part)!r}")
    return args


def _phi_index(spec):
    pe = _power_on(spec.phi, (spec.phi.breaks or [0.0])[-1], INF)  # the last piece
    return pe[1] if pe is not None else None


def _lambda_q_quasi(spec):
    # Lambda^q_phi is a genuine norm exactly when phi^q is quasi-concave
    hi = min(1.0, spec.phi.cap)
    return not is_quasiconcave(spec.phi, power=spec.q, window=(1e-8 * hi, hi)).ok


def _marc_ac(spec):
    # M over c t on all of (0, inf) is c L^1; every other M_phi is weak-type
    pe = _power_on(spec.phi, 0.0, INF)
    return pe is not None and pe[1] == 1.0


def _marc_lorentz_q(spec, a):
    # sup_t t^a u**(t): Hardy's inequality makes it L^(1/a,inf) for a < 1, but
    # at a = 1 it is the integral of u*, L^1 = L^(1,1)
    return 1.0 if a == 1.0 else INF


def _max_ac(spec):
    vals = {s.absolutely_continuous for s in spec.parts}
    return False if False in vals else None if None in vals else True


# structural arguments: (to_dict, from_dict, check, what the check asks) per kind
_PART_CODECS = {
    "phi": (_phi_to_dict, _phi_from_dict, lambda x: isinstance(x, FundamentalFn), "a shape"),
    "orlicz": (OrliczN.to_dict, OrliczN.from_dict, lambda x: isinstance(x, OrliczN),
               "an OrliczN"),
    "parts": (lambda parts: [s.to_dict() for s in parts],
              lambda ds: tuple(NormSpec.from_dict(d) for d in ds),
              lambda x: isinstance(x, tuple) and x != () and all(
                  isinstance(s, NormSpec) for s in x), "a nonempty tuple of specs"),
}

_FAMILIES = {
    "lp": _Family(
        NormSpec.lp, "lp", ("p",), None, "L^{p:g}", lambda u, s: _norm_lp(u, s.p),
        ac=lambda s: not math.isinf(s.p), quasi=lambda s: False, lorentz_q=lambda s, a: s.p,
        fundamental=lambda s: PowerPhi(1.0 / s.p), boyd=lambda s: 1.0 / s.p),
    "lorentz_pq": _Family(
        NormSpec.lorentz, "lorentz", ("p", "q"), None, "L^({p:g},{q:g})",
        lambda u, s: _norm_lorentz_pq(u, s.p, s.q),
        ac=lambda s: True, quasi=lambda s: s.q > s.p, lorentz_q=lambda s, a: s.q,
        fundamental=lambda s: PowerPhi(1.0 / s.p), boyd=lambda s: 1.0 / s.p),
    "lorentz_pinf": _Family(
        NormSpec.lorentz_weak, "lorentz-weak", ("p",), None, "L^({p:g},inf)",
        lambda u, s: _sup_star_phi(u, PowerPhi(1.0 / s.p)),
        ac=lambda s: False, quasi=lambda s: True, lorentz_q=lambda s, a: INF,
        fundamental=lambda s: PowerPhi(1.0 / s.p), boyd=lambda s: 1.0 / s.p),
    "lambda_phi": _Family(
        NormSpec.lambda_phi, "lambda", (), "phi", "Lambda_phi",
        lambda u, s: _norm_lambda_phi(u, s.phi),
        ac=lambda s: True, quasi=lambda s: False, lorentz_q=lambda s, a: 1.0,
        fundamental=lambda s: s.phi, boyd=_phi_index),
    "lambda_q_phi": _Family(
        NormSpec.lambda_q, "lambda-q", ("q",), "phi", "Lambda^{q:g}_phi",
        lambda u, s: _norm_lambda_q(u, s.phi, s.q),
        ac=lambda s: True, quasi=_lambda_q_quasi, lorentz_q=lambda s, a: s.q,
        fundamental=_lambda_q_fundamental, boyd=_phi_index),
    "marcinkiewicz": _Family(
        NormSpec.marcinkiewicz, "marc", (), "phi", "M_phi",
        lambda u, s: _sup_mp_phi(u, s.phi, 1.0, None),
        ac=_marc_ac, quasi=lambda s: False, lorentz_q=_marc_lorentz_q,
        fundamental=lambda s: s.phi, boyd=_phi_index),
    "weak_marcinkiewicz": _Family(
        NormSpec.weak_marcinkiewicz, "weak-marc", (), "phi", "M*_phi",
        lambda u, s: _sup_star_phi(u, s.phi),
        ac=lambda s: False, quasi=lambda s: True, lorentz_q=lambda s, a: INF,
        fundamental=lambda s: s.phi, boyd=_phi_index),
    # M^p_loc has the fundamental psi; M^p takes psi up to max(1, b), b phi's
    # last break, then phi: past b phi is c s^a, and where a <= 1/p the ratio
    # phi(s) s^{-1/p} rises no further, so that is the norm of an indicator
    # (for a > 1/p none is finite, and the shape is a finite stand-in);
    # psi == phi on (0, 1] iff phi^p is quasi-concave
    "marcinkiewicz_p": _Family(
        NormSpec.marcinkiewicz_p, "marc-p", ("p",), "phi", "M^{p:g}_phi",
        lambda u, s: _sup_mp_phi(u, s.phi, s.p, None),
        ac=lambda s: False, quasi=lambda s: True,
        fundamental=lambda s: psi_majorant_phi(s.phi, s.p, max([1.0, *s.phi.breaks])),
        boyd=_phi_index),
    "marcinkiewicz_p_loc": _Family(
        NormSpec.marcinkiewicz_p_loc, "marc-p-loc", ("p",), "phi", "M^{p:g}_phi,loc",
        lambda u, s: _sup_mp_phi(u, s.phi, s.p, 1.0),
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
        return decreasing_rearrangement(WeightedSamples(u.values, np.diff(u.edges)))
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


def _power_integral_rows(phi, lo, hi, r, s):
    """int phi(t)^r t^s dt/t over every interval (lo[i], hi[i]); inf on divergence.

    The one walker over a shape's pieces: the Lambda^q weights take r = q,
    s = 0 and criterion_B's segments r = -p, s = 1.  Each piece of phi, from
    one break to the next, takes the parts of all intervals in it at once:
    in closed form, as one array expression of its kind (_piece_integral),
    or else in the one _gauss_log_rows batch of all such parts, or by a
    dyadic refinement from 0; quadrature integrates phi itself, affine
    pieces too.  Each interval adds all its parts in piece order, so each
    value is bit-identical to integrating its interval alone whenever phi
    acts elementwise, and a total that is not finite reads inf.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    total = np.zeros(len(lo))
    if not len(lo):
        return total
    parts, qa, qb = [], [], []  # parts: (rows, values, places in the batch)

    def from_zero(t):
        return np.asarray(phi(t)) ** r / t ** (1 - s)

    with np.errstate(over="ignore"):  # a tiny exponent: past the float range, inf
        for a, b, kind, params in phi.pieces(float(lo.min()), float(hi.max())):
            x0, x1 = np.maximum(lo, a), np.minimum(hi, b)
            rows = np.flatnonzero(x0 < x1)
            if not rows.size:
                continue
            x0, x1 = x0[rows], x1[rows]
            term, left = _piece_integral(x0, x1, kind, params, r, s)
            batch = None
            if left is not None:  # no closed form: quadrature, and a refinement from 0
                batch = np.flatnonzero(left & (x0 > 0) if a == 0.0 else left)
                qa.append(x0[batch])
                qb.append(x1[batch])
                for k in np.flatnonzero(left & ~(x0 > 0)).tolist() if a == 0.0 else ():
                    term[k] = _dyadic_integral(from_zero, x1[k])
            parts.append((rows, term, batch))
        if qa:
            quad = _gauss_log_rows(lambda t: phi(t) ** r * t ** s,
                                   np.concatenate(qa), np.concatenate(qb))
    done = 0
    with np.errstate(invalid="ignore"):  # inf - inf: a total that is not finite
        for rows, term, batch in parts:
            if batch is not None:
                term[batch], done = quad[done:done + batch.size], done + batch.size
            total[rows] += term
    total[~np.isfinite(total)] = INF
    return total


def _piece_integral(x0, x1, kind, params, r, s):
    """int phi(t)^r t^s dt/t in closed form over the parts (x0[i], x1[i]) of
    one piece, s = 0 or 1: (values, left), left flagging the parts that have
    no closed form (None: none).

    A power piece c t^alpha gives c^r (x1^e - x0^e) / e with e = r alpha + s,
    c^r log(x1/x0) at e = 0, and inf from x0 = 0 when e <= 0.  An affine
    piece c + m t is the power m t when c = 0 and the power c t^0 when
    m = 0.  Otherwise at s = 1 it has the closed form of int (c + m t)^r dt;
    at s = 0 it diverges from 0 like c^r / t, and elsewhere has none.  A
    power-log head c t^alpha |log t|^beta gives c^r (L(x1) - L(x0)) with
    L = _log_power_integral(., e, r beta), where that converges (e > 0 and
    r beta > -1) and L stays in the float range.  The powers and logs of
    power and affine pieces are the C library's, one end at a time, so a
    part has the bits it has alone; c^r past the float range is inf.
    """
    if kind == "affine":
        c, m = params
        if c == 0.0:
            kind, params = "power", (m, 1.0)
        elif m == 0.0:
            kind, params = "power", (c, 0.0)
        elif s == 0:
            return np.full(len(x0), INF), x0 > 0
        else:
            e = r + 1
            if e == 0:
                return (_log_each(c + m * x1) - _log_each(c + m * x0)) / m, None
            return (_pow_each(c + m * x1, e) - _pow_each(c + m * x0, e)) / (m * e), None
    if kind == "power_log":
        c, alpha, beta = params
        c = np.float64(c)
        e, k = s + r * alpha, r * beta
        if e > 0 and k > -1:
            lo_tails, hi_tails = _joined_tails(x0, x1, e, k)
            if np.all(np.isfinite(hi_tails)):  # else past the float range, as eta -> 0
                return c ** r * (hi_tails - lo_tails), None
    if kind != "power":
        return np.zeros(len(x0)), np.ones(len(x0), dtype=bool)
    c, alpha = np.float64(params[0]), params[1]
    if c == 0.0:  # phi vanishes on the piece
        return np.full(len(x0), 0.0 if r > 0 else INF), None
    e = s + r * alpha
    if e > 0:  # 0 ** e is 0: parts from 0 too
        return c ** r * (_pow_each(x1, e) - _pow_each(x0, e)) / e, None
    out = np.full(len(x0), INF)  # from 0
    inner = np.flatnonzero(x0 > 0)
    if e == 0:
        out[inner] = c ** r * _log_each(x1[inner] / x0[inner])
    else:
        out[inner] = c ** r * (_pow_each(x1[inner], e) - _pow_each(x0[inner], e)) / e
    return out, None


def _joined_tails(x0, x1, e, k):
    """_log_power_integral at the ends of every part, 0 at 0; parts that
    join up, each from where the one before ends, take each end once."""
    joined = np.array_equal(x0[1:], x1[:-1])
    ends = np.concatenate((x0[:1] if joined else x0, x1))
    tails = np.zeros(len(ends))
    tails[ends > 0] = _log_power_integral(ends[ends > 0], e, k)
    return (tails[:-1], tails[1:]) if joined else (tails[:len(x0)], tails[len(x0):])


def _pow_each(xs, e):
    """xs ** e one float at a time (e a float or an array like xs), by the C
    library's pow: numpy's vector pow may round a last ulp apart from it.
    Past the float range, inf."""
    es = e.tolist() if np.ndim(e) else [e] * len(xs)
    try:
        return np.array([x ** y for x, y in zip(xs.tolist(), es)], dtype=float)
    except (OverflowError, ValueError, ZeroDivisionError):
        # numpy's scalar pow is the C library's too, and quiet under errstate
        return np.array([x ** y for x, y in zip(xs, np.asarray(es, dtype=float))], dtype=float)


def _log_each(xs):
    """math.log of each float: numpy's vector log may round a last ulp apart."""
    return np.array([math.log(x) for x in xs.tolist()], dtype=float)


def _log_power_integral(x, eta, k):
    """int_0^x t^eta |log t|^k dt/t at each 0 < x < 1, for eta > 0, k > -1.

    With u = -log x, a = k + 1 and z = eta u it is eta^-a Gamma(a, z), the
    upper incomplete gamma function (DLMF 8.2.2).  Where z >= a + 1 that is
    x^eta u^a h, with h the continued fraction of Gamma(a, z) e^z z^-a
    (DLMF 8.9.2), by the modified Lentz method.  Below, for a >= 1, it is
    eta^-a (Gamma(a) - gamma(a, z)), the lower function by its series (DLMF
    8.7.1; Press et al., "Numerical Recipes", 6.2).  For a < 1 that
    difference would lose the digits of Gamma(a) ~ 1/a, so there it is the
    value at z0 = a + 1 plus the integral of w^(a-1) e^-w over (z, z0).
    """
    a = k + 1.0
    u = -np.log(x)
    z = eta * u
    scale = x ** eta * u ** a  # e^-z u^a
    deep = z > 512.0  # there x^eta may underflow where the product does not:
    m = np.ceil(z[deep] / 512.0)  # take it in m equal factors
    scale[deep] = (x[deep] ** (eta / m) * u[deep] ** (a / m)) ** m
    out = np.empty(len(z))
    far = z >= a + 1.0
    out[far] = scale[far] * _gamma_fraction(a, z[far])
    near = ~far
    if not near.any():
        return out
    zn = z[near]
    if a >= 1.0:
        out[near] = np.exp(math.lgamma(a) - a * math.log(eta)) - scale[near] * _gamma_series(a, zn)
    else:
        z0 = a + 1.0
        at_z0 = math.exp(a * math.log(z0) - z0) * float(_gamma_fraction(a, np.array([z0]))[0])
        out[near] = eta ** -a * (at_z0 + _gamma_strip(a, zn, z0))
    return out


def _gamma_fraction(a, z):
    """h with Gamma(a, z) = e^-z z^a h, for z >= a + 1: the continued fraction
    1 / (z + 1 - a - 1 (1 - a) / (z + 3 - a - 2 (2 - a) / ...)), by the
    modified Lentz method, each z run until its factor is 1 to 1e-15."""
    tiny = 1e-300
    b = z + 1.0 - a
    c = np.full(len(z), 1.0 / tiny)
    d = 1.0 / b
    h = d.copy()
    rows = np.arange(len(z))
    i = 0
    while rows.size:
        i += 1
        an = -i * (i - a)
        b = b + 2.0
        d = an * d + b
        d[np.abs(d) < tiny] = tiny
        c = b + an / c
        c[np.abs(c) < tiny] = tiny
        d = 1.0 / d
        factor = d * c
        h[rows] *= factor
        more = np.abs(factor - 1.0) > 1e-15
        rows, b, c, d = rows[more], b[more], c[more], d[more]
    return h


def _gamma_series(a, z):
    """sum_n z^n / (a (a + 1) ... (a + n)), so that gamma(a, z) = e^-z z^a
    times it; each z runs until its term falls below 1e-16 of its sum."""
    term = np.full(len(z), 1.0 / a)
    total = term.copy()
    rows = np.arange(len(z))
    n = 0
    while rows.size:
        n += 1
        term = term * z[rows] / (a + n)
        total[rows] += term
        more = term > 1e-16 * total[rows]
        rows, term = rows[more], term[more]
    return total


def _gamma_strip(a, z, z0):
    """int_z^z0 w^(a-1) e^-w dw for 0 < z < z0 <= 2, with e^-w expanded:
    the sum of (-1)^n z0^(a+n) (1 - (z/z0)^(a+n)) / (n! (a + n)), each
    bracket as -expm1(-(a + n) log(z0/z)) so that no digits cancel in it."""
    gap = np.log(z0 / z)
    total = np.zeros(len(z))
    coeff, n = z0 ** a, 0  # (-1)^n z0^(a+n) / n!
    while abs(coeff) > 1e-18:
        total += coeff / (a + n) * -np.expm1(-(a + n) * gap)
        n += 1
        coeff *= -z0 / n
    return total


# intervals per integrand call: bounds the node arrays at about 1.5 MB
_GAUSS_BLOCK = 2048


def _gauss_log_rows(f, a, b, panels=4):
    """Integral of f(t)/t over every interval (a[i], b[i]), 0 < a[i] <= b[i].

    ``panels`` equal pieces of log t per interval, 24 Gauss-Legendre nodes
    each.  ``f(t)`` runs once per block of up to _GAUSS_BLOCK intervals, on
    one flat array of the block's nodes, interval by interval, and returns
    a value per node.  Panels are summed over their nodes without a BLAS
    dot and added in order, so each interval is bit-identical to
    integrating it alone, panel by panel, whenever f acts elementwise.
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
        vals = np.asarray(f(t.ravel()), dtype=float).reshape(t.shape)
        sums = h * np.add.reduce(_GAUSS_W * vals, axis=2)
        acc = out[rows]
        for panel in sums.T:
            acc += panel
    return out


# dyadic levels per kernel call; fixed, since a growing block overshoots a
# late stop (doubling blocks run 120 levels for an 84-level m_phi_norm)
_DYADIC_BLOCK = 8


def _dyadic_integral(g, b):
    """Integral of g over (0, b) by dyadic refinement toward 0.

    Level k is the piece (b / 2^(k+1), b / 2^k), its ends halved one level
    at a time.  Divergence is classified by the refinement-doubling rule:
    either the accumulated value doubles across two consecutive
    refinements, or the per-level pieces stop decaying geometrically (the
    borderline 1/t case): two ratios of pieces at or above 0.999 in a row,
    from level 4 on.  A ratio that has fallen more than 0.1% below the one
    before does not count, so pieces that grow over the first levels and
    then decay slowly are no divergence.  Otherwise the geometric tail of
    the remaining levels is extrapolated, once the last ratio lies in
    (0, 1) and the tail falls below 1e-13 of the total.
    Refinement also stops after 200 levels, or where the next lower end
    would underflow to 0; the piece left below the last level then counts
    as that geometric tail, where the last ratio of pieces lies in (0, 1).

    The levels are integrated _DYADIC_BLOCK at a time, one _gauss_log_rows
    batch each with g run once on all of the block's nodes, and the rules
    above read the pieces in order.  Each piece is bit-identical to
    integrating its level alone whenever g acts elementwise; a block may
    run g on a few levels past the stop.
    """
    total = 0.0
    hi = b
    doublings = 0
    flat = 0
    prev_total = 0.0
    prev_piece = None
    prev_ratio = None
    tail_est = 0.0
    level = 0
    while True:
        his = []
        while len(his) < _DYADIC_BLOCK and level + len(his) < 200 and hi / 2.0 != 0.0:
            his.append(hi)
            hi /= 2.0
        if not his:
            return total + tail_est
        for piece in _gauss_log_rows(lambda t: np.asarray(g(t)) * t,
                                     [x / 2.0 for x in his], his, panels=1):
            total += piece
            if prev_total > 0 and total >= 2.0 * prev_total:
                doublings += 1
                if doublings >= 2:
                    return INF
            else:
                doublings = 0
            tail_est = 0.0
            if prev_piece is not None and prev_piece > 0:
                ratio = piece / prev_piece
                if 0 < ratio < 1:
                    tail_est = piece * ratio / (1.0 - ratio)
                if ratio >= 0.999 and not (prev_ratio is not None
                                           and ratio < 0.999 * prev_ratio):
                    flat += 1
                    if flat >= 2 and level >= 4:
                        return INF
                else:
                    flat = 0
                    if 0 < ratio < 1 and tail_est < 1e-13 * max(total, 1e-300):
                        return total + tail_est
                prev_ratio = ratio
            prev_total = total
            prev_piece = piece
            level += 1


def _norm_lambda_q(ustar, phi, q):
    """(sum_i v_i^q int_cell_i phi^q dt/t)^{1/q} over the cells of u*.

    All nonzero cells' weights are one _power_integral_rows batch, and the
    terms a running sum in cell order: bit-identical to weighting one cell
    at a time.
    """
    if ustar.tail > 0:
        return INF
    e = ustar.edges
    v = ustar.values
    cells = np.flatnonzero(v != 0.0)
    w = _power_integral_rows(phi, e[cells], e[cells + 1], q, 0)
    v = v[cells]
    finite = np.isfinite(v)
    if not np.all(np.isfinite(w)) or np.any(w[~finite] > 0):
        return INF
    with np.errstate(over="ignore"):  # a finite sum past the float range: inf
        terms = _pow_each(v[finite], q) * w[finite]
        total = float(np.cumsum(terms)[-1]) if terms.size else 0.0
    return total ** (1.0 / q)


def _sup_star_phi(ustar, phi):
    """sup_t u*(t) phi(t): exact (phi increasing on each constant cell).

    ``phi`` is evaluated once, on the array of right cell edges.
    """
    best = _masked_sup(ustar.values, np.asarray(phi(ustar.edges[1:]), dtype=float))
    if ustar.tail > 0:
        top = phi.value_inf()
        if not math.isfinite(top):
            return INF
        best = max(best, ustar.tail * top)
    return best


def _masked_sup(vals, phis):
    """max(0, sup of vals * phis over finite vals), or inf where an infinite
    val meets phis > 0.  Nan products are skipped, as ``max(best, x)`` skips
    them.
    """
    finite = np.isfinite(vals)
    if finite.all():
        prods = vals * phis
    else:
        # read only where vals are infinite
        prods = np.where(phis > 0, INF, 0.0)
        prods[finite] = vals[finite] * phis[finite]
    return float(np.fmax.reduce(prods, initial=0.0))


def _mp_values(ustar, p, ts):
    """M_p u*(t) = ((1/t) int_0^t u*^p)^{1/p} at the given points."""
    with np.errstate(invalid="ignore"):  # 0 / 0 at t = 0; an inf marker stays inf
        return (ustar.integrals_at(ts, p) / ts) ** (1.0 / p)


def _sup_mp_phi(ustar, phi, p, window_hi):
    """sup over the window of M_p u*(t) phi(t).

    Exact for power/affine phi.  ``window_hi=None`` is the global norm (sup
    over t > 0); otherwise the sup runs over (0, window_hi].  It is taken at
    the points of ``_sup_points``, plus the limits at 0 and at infinity.
    """
    ts = _sup_points(phi, window_hi, ustar.edges)
    best = _masked_sup(_mp_values(ustar, p, ts), np.asarray(phi(ts), dtype=float))
    p0 = phi.phi0plus()
    if p0 > 0:
        # limit candidate as t -> 0+ (inf for an inf first value)
        first = ustar.values[0] if ustar.ncells else ustar.tail
        best = max(best, first * p0)
    if window_hi is None:
        # tail behaviour for the global norm
        lim = _mp_tail(ustar, p, phi)
        best = max(best, lim) if math.isfinite(lim) else INF
    return best


def _sup_points(phi, window_hi, edges):
    """The points where ``_sup_mp_phi`` takes its supremum over the cells
    with these edges.

    They are the right cell edges, phi's kinks, the window end hi and 1,
    kept where they lie in (0, hi], plus a geometric grid where phi has a
    generic piece.  All of them are positive, and duplicates stay, since a
    maximum ignores them.
    """
    end = float(edges[-1])
    hi = max(end, 1.0)
    if math.isfinite(phi.cap):
        hi = max(hi, phi.cap)
    hi = 2.0 * hi if window_hi is None else float(window_hi)
    pts = [edges[1:], phi.kinks(0.0, hi), [hi, 1.0]]
    reach = max(end, 2.0)
    if _generic_start(phi, 1e-12, reach) < reach:
        lo = min(edges[1] if len(edges) > 1 else hi, hi) * 1e-6
        pts.append(np.geomspace(max(lo, hi * 1e-14), hi, DEFAULT_SUP_POINTS))
    ts = np.concatenate(pts)
    return ts[ts <= hi]


def _mp_tail(ustar, p, phi):
    """Limit of M_p u*(t) phi(t) as t -> inf (0.0 when it vanishes).

    A positive tail gives tail * phi(inf), approached from above.  Without
    one, M_p u*(t) = (I / t)^{1/p} with I the integral of u*^p, so the limit
    is 0 for a bounded phi and, for phi = c t^alpha at infinity, 0 where
    alpha < 1/p, c I^{1/p} at alpha = 1/p and inf above (0 where I = 0).
    """
    top = phi.value_inf()
    if math.isfinite(top) or ustar.tail > 0:
        return ustar.tail * top
    pe = _power_on(phi, (phi.breaks or [0.0])[-1], INF)  # the last piece
    if pe is None:
        raise UnsupportedCombination("M_p over an unbounded shape needs a power at infinity")
    coeff, alpha = pe
    if alpha < 1.0 / p:
        return 0.0
    total = ustar.total_integral(p)
    if alpha == 1.0 / p:
        return coeff * total ** (1.0 / p)
    return INF if total > 0 else 0.0


def _norm_orlicz(ustar, orlicz: OrliczN):
    """The Luxemburg norm inf {lam > 0: sum_i w_i Psi(v_i / lam) <= 1}, exactly.

    Psi is c_k + s_k x on its segment k, so between the sorted breakpoints
    v_i / x_k (cell values over Psi's bends) the modular is A + B / lam.  It
    falls as lam grows: a binary search over the breakpoints brackets its
    crossing of 1, each v_i's segment is read off the bracket's upper end,
    and there lam = B / (1 - A).  Psi is convex through 0, so every c_k <= 0
    and neither sum cancels.  A norm past the float range reads inf; where
    A is past it, the norm is the bracket's upper end to a relative 1 / (1 - A).
    """
    if ustar.tail > 0 or ustar.has_inf():
        return INF
    cells = np.flatnonzero(ustar.values > 0)
    if not cells.size:
        return 0.0
    v, w = ustar.values[cells], np.diff(ustar.edges)[cells]
    xs, ys, slopes = orlicz.xs, orlicz.ys, orlicz.slopes
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        cuts = v[:, None] / xs[1:-1]
        lams = np.sort(cuts, axis=None)
        j = bisect_left(lams, True, key=lambda lam: np.sum(w * orlicz.value(v / lam)) <= 1.0)
        top = lams[j] if j < len(lams) else INF
        k = np.count_nonzero(cuts >= top, axis=1)
        a = np.sum(w * (ys[k] - slopes[k] * xs[k]))
        lam = np.sum(w * slopes[k] * v) / (1.0 - a)
    return float(lam if a > -INF else top)


# ---------------------------------------------------------------------------
# fundamental function evaluation, quasi-concavity, majorants
# ---------------------------------------------------------------------------


def fundamental_function(spec: NormSpec, t) -> float:
    """Norm of an indicator of measure t, for a finite t > 0 (else ValueError)."""
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


def psi_majorant_phi(phi: FundamentalFn, p, hi=1.0) -> FundamentalFn:
    """max(phi, psi): psi below hi and phi from hi on.  At hi = 1, M^p over
    it has the norm of M^p over phi, globally and locally.  Where phi(s)
    s^{-1/p} rises nowhere past hi, it is t^{1/p} sup_{s>=t} phi(s) s^{-1/p},
    the norm of an indicator of measure t in M^p_phi."""
    return _MaxPhi([PsiMajorantPhi(phi, p, hi), phi])


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
