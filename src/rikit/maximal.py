"""Maximal operators, Hardy and dilation operators, growth indices, and the
boundedness criteria behind the Lipschitz-density verdicts.

Half-line operators act on decreasing GridFns with exact cell calculus, at
finite t > 0; the metric-space maximal operator enumerates the O(n^2)
distinct balls by brute force.  Index estimates are labelled exact or not;
without a closed form, the Boyd bounds are those of the norms of
indicators.  The criteria report certifies an index inequality from exact
indices only.  Powers of a shape are integrated over
its pieces in spaces._power_integral_rows alone, and its power and power-log
behaviour (near zero, on (0, x), the exact Zippin index, a regularly varying
head) is read off its pieces in spaces alone: this module dispatches on no
shape.  On a power-log head, B takes Karamata's limit and m_phi its closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateRatio, InvariantViolated, UnsupportedCombination, ZeroFunction
from .metric import MMS, _ball_index, _ball_input
from .rearrange import GridFn, WeightedSamples, decreasing_rearrangement
from .spaces import (
    _FAMILIES,
    FundamentalFn,
    NormSpec,
    _dyadic_integral,
    _mp_values,
    _near_unit,
    _pow_each,
    _power_integral_rows,
    _power_on,
    _regular_head,
    _zippin_exponent,
    geometric_grid,
)

INF = math.inf


# ---------------------------------------------------------------------------
# operators on the half-line
# ---------------------------------------------------------------------------


def maximal_decreasing(ustar: GridFn, p, t) -> float:
    """M_p u*(t) = ((1/t) int_0^t u*^p)^{1/p}, exact per cell."""
    if p < 1:
        raise ValueError("p >= 1 required")
    if not 0 < t < INF:  # NaN too
        raise ValueError("a finite t > 0 required")
    return float(_mp_values(ustar, p, np.asarray([t], dtype=float))[0])


def hardy(a, ustar: GridFn, t) -> float:
    """Hardy-type average P_a u*(t) = t^{-a} int_0^t u*(s) s^{a-1} ds."""
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    t = float(t)
    if not 0 < t < INF:  # NaN too
        raise ValueError("a finite t > 0 required")
    e = ustar.edges
    v = ustar.values
    total = 0.0
    for i in range(len(v)):
        lo, hi = e[i], min(e[i + 1], t)
        if hi <= lo:
            break
        if not math.isfinite(v[i]):
            return INF
        total += v[i] * (hi ** a - lo ** a) / a
    if t > ustar.support_end and ustar.tail > 0:
        total += ustar.tail * (t ** a - ustar.support_end ** a) / a
    return total * t ** (-a)


def dilation(f: GridFn, s) -> GridFn:
    """E_s f(t) = f(st): breakpoints scaled by 1/s, values preserved."""
    s = float(s)
    if s <= 0:
        raise ValueError("s > 0 required")
    return GridFn(f.edges / s, f.values.copy(), f.tail)


# ---------------------------------------------------------------------------
# metric-space maximal operators
# ---------------------------------------------------------------------------


def maximal_metric(space: MMS, u, p) -> np.ndarray:
    """Non-centered M_p u by brute force over all distinct balls.

    Balls are the distance-sorted prefixes per center (the point sets
    realized by open balls with radii at midpoints between consecutive
    distinct distances); the supremum is order-independent.  M_p u is
    (M_1 |u|^p)^{1/p}: the sweep takes the largest mean of |u|^p over the
    balls holding each point and one power 1/p per point at the end.  That
    keeps every bit of a power per ball, since t -> t^{1/p} is monotone,
    so the power of the largest mean is the largest of the powers.
    """
    u = np.abs(_ball_input(space, u, p))
    w = space.weights
    wup = w * u ** p
    out = np.zeros(space.n)
    for _, order, ds, last in _ball_index(space):
        means = wup[order]
        np.cumsum(means, axis=1, out=means)
        means /= np.cumsum(w[order], axis=1)
        np.copyto(means, -INF, where=~(last & (ds < INF)))
        # the balls about a center holding its k-th nearest point end at k or later
        suffix = means[:, ::-1]
        np.maximum.accumulate(suffix, axis=1, out=suffix)
        np.maximum.at(out, order.ravel(), means.ravel())
    return out ** (1.0 / p)


@dataclass(frozen=True)
class HerzRiesz:
    min_ratio: float
    max_ratio: float
    samples: tuple


def herz_riesz_ratios(space: MMS, u, p) -> HerzRiesz:
    """Ratios M_p u*(t) / (M_p u)*(t) on 48 geometric points inside (0, meas).

    The grid runs from min(min weight / 4, meas / 8) to just below the
    total measure; points where (M_p u)* vanishes are skipped.
    """
    u = np.asarray(u, dtype=float)
    if not np.any(u != 0):
        raise ZeroFunction("Herz-Riesz ratios need a nonzero function")
    meas = space.total_measure
    ustar = decreasing_rearrangement(WeightedSamples(u, space.weights))
    mstar = decreasing_rearrangement(
        WeightedSamples(maximal_metric(space, u, p), space.weights)
    )
    lo = float(np.min(space.weights)) / 4.0
    ts = geometric_grid(min(lo, meas / 8), meas * (1 - 1e-9), 48)
    nums = _mp_values(ustar, p, ts)
    dens = mstar.value_at(ts)
    used = dens > 0
    if not np.any(used):
        raise ZeroFunction("no usable grid points")
    ratios = (nums[used] / dens[used]).tolist()
    return HerzRiesz(min(ratios), max(ratios), tuple(zip(ts[used].tolist(), ratios)))


# ---------------------------------------------------------------------------
# growth indices
# ---------------------------------------------------------------------------


@dataclass
class IndexReport:
    """Dilation (Boyd) and fundamental (Zippin) index estimates.

    ``beta_upper`` is the upper fundamental index: exact where the pieces
    give it (``beta_exact``), otherwise a grid estimate that bounds the
    true index from neither side.  ``alpha_lower`` is the exact upper Boyd
    index where a closed form applies (``alpha_exact``).  Otherwise the
    indicators give the bounds: ``h_samples`` are k(s) of their norms, the
    ``k_samples``, and ``alpha_lower`` is their fundamental index, a lower
    bound where exact.
    """

    k_samples: list = field(default_factory=list)
    h_samples: list = field(default_factory=list)
    beta_upper: float | None = None
    alpha_lower: float | None = None
    alpha_exact: bool = False
    beta_exact: bool = False
    lower_bound_only: bool = True
    note: str = ""

    def to_dict(self):
        return {**vars(self), **{name: [[float(s), float(k)] for (s, k) in getattr(self, name)]
                                 for name in ("k_samples", "h_samples")}}


def _power_diverges(phi, p):
    """Whether phi's first piece is c t^alpha |log t|^beta (a power: beta = 0)
    with alpha >= 1/p, so that int_0 phi^-p and the L^p norm of m_phi
    diverge for every beta.  Every rule compares alpha with 1.0 / p: (1/p) * p
    may round to 1 - 2^-53."""
    head = _regular_head(phi, 0.0)
    return head is not None and head[1] >= 1.0 / p


# the dilation factors s of the index reports, built once
_S_GRID = np.geomspace(2.0, 4096.0, 12)


def _dilation_factors(s_grid):
    """The s grid as an array (None: _S_GRID); ValueError unless it is
    nonempty and every s is finite and greater than 1."""
    s_grid = _S_GRID if s_grid is None else np.asarray(s_grid, dtype=float)
    if not (s_grid.size and np.all(np.isfinite(s_grid) & (s_grid > 1))):
        raise ValueError("s grid must be nonempty, finite and > 1")
    return s_grid


def zippin_upper(phi: FundamentalFn, s_grid=None) -> IndexReport:
    """k_X(s) = sup_t phi(st)/phi(t) and the upper fundamental index.

    Exact where ``spaces._zippin_exponent`` reads k(s) = s^alpha off the
    pieces.  Otherwise k(s) is the maximum over a geometric grid, phi's
    kinks and the kinks divided by s.  That is exact where phi is piecewise
    power and constant, or piecewise affine, since the ratio is monotone
    between those points.  Over a generic piece the grid maximum
    under-estimates k(s), so the reported index is only an estimate: it can
    fall below the true index (0.496 against 0.55 for
    ``power_log(0.55, 1.0)``) and certifies no inequality.  k(s) is the
    same for c phi, so the grid ratios are those of ``phi.unit``: a tiny or
    huge coefficient leaves them as at phi(1) near 1.
    """
    s_grid = _dilation_factors(s_grid)
    alpha = _zippin_exponent(phi)
    if alpha is not None:
        ks = [(float(s), float(s ** alpha)) for s in s_grid]
        beta = alpha
    else:
        hi = phi.cap if math.isfinite(phi.cap) else 1e4
        base = phi.eval_grid(1e-10, max(hi * 4, 1.0), 512)
        _, at_t, at_st = _dilation_pairs(phi.unit, base, phi.kinks(0.0, INF), s_grid)
        # the floor holds where phi has no unit: phi(1) is 0, as on a vanishing shape
        ks = np.max(at_st / np.maximum(at_t, 1e-300), axis=1)
        ks = list(zip(s_grid.tolist(), ks.tolist()))
        betas = [math.log(k) / math.log(s) for (s, k) in ks if k > 0]
        if not betas:
            raise DegenerateRatio("k(s) is positive at no s: phi vanishes on the grid")
        beta = min(betas)
    exact = alpha is not None
    return IndexReport(k_samples=ks, beta_upper=float(beta), beta_exact=exact,
                       note="k exact (power shape)" if exact else "k by grid supremum")


def _dilation_pairs(phi, base, kinks, ss):
    """phi(t) and phi(s t) for each s of ss, one row per s, with t over the
    shared base grid and then phi's kinks divided by s: (t, phi(t), phi(s t)).

    phi runs once on the shared base, bit-identical to a run per s whenever
    phi acts elementwise.
    """
    ss = ss[:, None]
    own = kinks / ss
    shape = (len(ss), len(base))
    ts = np.concatenate((np.broadcast_to(base, shape), own), axis=1)
    at_t = np.concatenate((
        np.broadcast_to(np.asarray(phi(base), dtype=float), shape),
        np.asarray(phi(own.ravel()), dtype=float).reshape(own.shape)), axis=1)
    at_st = np.asarray(phi((ss * ts).ravel()), dtype=float).reshape(ts.shape)
    return ts, at_t, at_st


def boyd_upper_lowerbound(spec: NormSpec, s_grid=None) -> IndexReport:
    """Dilation-norm samples h_X(s) and the upper Boyd index.

    Closed-form families report the exact index.  Otherwise indicators,
    whose norms are the fundamental function, give h(s) >= k(s): the
    samples are those of ``zippin_upper`` on ``spec.fundamental_phi()``,
    and ``alpha_lower`` is their fundamental index, a true lower bound for
    the Boyd index where that index is exact (``beta_exact``) and a grid
    estimate otherwise.  Flagged, and never used to certify a strict
    inequality downstream.
    """
    return _boyd_bounds(spec, _dilation_factors(s_grid), None)


def _boyd_bounds(spec, s_grid, z):
    """``boyd_upper_lowerbound`` on a checked s grid, with z the Zippin
    report of ``spec.fundamental_phi()`` on it (None: computed here if
    needed)."""
    exact = spec.boyd_alpha_exact()
    if exact is not None:
        return IndexReport(h_samples=[(float(s), float(s ** exact)) for s in s_grid],
                           alpha_lower=float(exact), alpha_exact=True, lower_bound_only=False,
                           note="dilation norm closed form")
    if z is None:
        z = zippin_upper(spec.fundamental_phi(), s_grid)
    # alpha_exact, lower_bound_only: the defaults
    return IndexReport(h_samples=z.k_samples, alpha_lower=z.beta_upper,
                       note="indicator lower bounds only" + ("" if z.beta_exact else
                                                             "; alpha_lower a grid estimate"))


def indices_report(spec: NormSpec, s_grid=None) -> IndexReport:
    """Combined Zippin/Boyd report for a norm specification."""
    phi = spec.fundamental_phi()
    if phi is None:
        raise ValueError("spec has no computable fundamental function")
    s_grid = _dilation_factors(s_grid)
    z = zippin_upper(phi, s_grid)
    b = _boyd_bounds(spec, s_grid, z)
    return IndexReport(
        k_samples=z.k_samples,
        h_samples=b.h_samples,
        beta_upper=z.beta_upper,
        beta_exact=z.beta_exact,
        alpha_lower=b.alpha_lower,
        alpha_exact=b.alpha_exact,
        lower_bound_only=b.lower_bound_only,
        note="; ".join(x for x in (z.note, b.note) if x),
    )


# ---------------------------------------------------------------------------
# boundedness criteria
# ---------------------------------------------------------------------------


def criterion_B(phi: FundamentalFn, p, delta=1.0) -> float:
    """sup_{0<t<delta} phi(t)^p (1/t) int_0^t phi(s)^{-p} ds.

    Finiteness certifies weak boundedness of M_p between weak Marcinkiewicz
    spaces on sets of finite measure; divergence is flagged as inf.  Where
    phi = c t^alpha on all of (0, delta) it is 1 / (1 - alpha p).  On a head
    c t^alpha |log t|^beta, regularly varying with index alpha, the ratio
    tends to that value as t -> 0 (Karamata's theorem; Bingham, Goldie and
    Teugels, "Regular Variation", 1987, section 1.5), below the grid's lowest
    point, so the supremum is at least it.

    The inner integral adds up the segments between grid points in order;
    spaces._power_integral_rows integrates phi^{-p} over all of them in one
    walk, bit-identical to a segment-by-segment sweep whenever phi acts
    elementwise.  B is the same for c phi: where phi^{-p} or phi^p leaves the
    normal floats, it is taken again over ``_near_unit(phi, delta)``, phi near
    1 at delta; phi goes first, so B keeps the bits of a sweep over phi itself.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    pe = _power_on(phi, 0.0, delta)
    if pe is not None:
        return INF if pe[1] >= 1.0 / p else 1.0 / (1.0 - pe[1] * p)
    if _power_diverges(phi, p):
        # inner integral already diverges at zero
        return INF
    ts = phi.eval_grid(delta * 1e-18, delta, 160)
    best = _grid_B(phi, ts, p)
    unit = phi if math.isfinite(best) else _near_unit(phi, delta)
    if unit is not phi:  # phi's powers may pass the float range; B is that of c phi
        best = _grid_B(unit, ts, p)
    head = _regular_head(phi, 0.0)
    return best if head is None else max(best, 1.0 / (1.0 - head[1] * p))


def _grid_B(phi, ts, p):
    """The maximum over ts of phi(t)^p (1/t) int_0^t phi^-p; inf where an
    inner integral is not finite or, having lost digits, not normal, nan
    where phi^p is not finite."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # past the floats
        inners = np.cumsum(_power_integral_rows(phi, np.concatenate(([0.0], ts[:-1])), ts,
                                                -p, 1))
        if not (np.all(np.isfinite(inners)) and inners[0] >= np.finfo(float).tiny):
            return INF
        return float(np.max(np.asarray(phi(ts), dtype=float) ** p * inners / ts))


def m_phi(phi: FundamentalFn, s) -> float:
    """m_phi(s) = sup_{0<t<1} phi(t) / phi(st) for s in (0, 1), over ``phi.unit``."""
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    return float(_m_phi_values(phi.unit, np.asarray([s], dtype=float))[0])


def _m_phi_values(phi, ss):
    """m_phi at every s in ss at once.

    Where phi below 1 is a head c t^alpha |log t|^beta on (0, b) and then a
    constant, log phi is concave in log t for beta >= 0, so phi(t) / phi(st)
    falls in t and m_phi(s) is its limit at 0, s^-alpha.  For beta < 0 log phi
    is convex on the head: the ratio rises up to t = b and falls past it, so
    m_phi(s) is phi(b) / phi(sb), the grid's value wherever the grid reaches
    b.  Elsewhere it is the grid maximum of _m_phi_at.  Over a unit phi, no
    phi(s t) needs a floor: quasi-concavity gives phi(t) >= t phi(1) >= t / sqrt(2), t <= 1.
    Where s t leaves the normal floats, phi(s t) can be 0 or subnormal:
    UnsupportedCombination there.
    """
    head = _regular_head(phi, 1.0)
    if head is None:
        return _m_phi_at(phi, ss)
    if head[2] >= 0:
        return _pow_each(ss, -head[1])
    at = np.asarray(phi(np.concatenate(([head[0]], ss * head[0]))), dtype=float)
    return at[0] / _normal_rows(at[1:], ss)


def _normal_rows(at_st, ss):
    """at_st, the values phi(s t) of one s of ss per row (or per entry);
    UnsupportedCombination naming the first s whose row holds a 0 or a
    subnormal."""
    low = np.min(at_st.reshape(len(ss), -1), axis=1) < np.finfo(float).tiny
    if np.any(low):
        raise UnsupportedCombination(
            f"phi(s t) leaves the normal floats at s = {float(ss[np.argmax(low)])!r}")
    return at_st


def _m_phi_at(phi, ss):
    """m_phi at every s in ss at once, each over its own grid.

    The grid of one s is a shared base (192 geometric points from 1e-12 to
    1 and phi's kinks between) joined with phi's kinks divided by s.
    """
    ts, at_t, at_st = _dilation_pairs(phi, phi.eval_grid(1e-12, 1.0, 192),
                                      phi.kinks(1e-12, 1.0), ss)
    return np.max(np.where(ts <= 1.0, at_t / _normal_rows(at_st, ss), -INF), axis=1)


def m_phi_norm(phi: FundamentalFn, p) -> float:
    """L^p(0,1) norm of the quasi-concavity modulus m_phi; inf on divergence.

    Where m_phi(s) = s^-alpha (see _m_phi_values) it is (1 - alpha p)^{-1/p}."""
    if p < 1:
        raise ValueError("p >= 1 required")
    head = _regular_head(phi, 1.0)
    if head is not None and head[2] >= 0:
        return INF if head[1] >= 1.0 / p else (1.0 / (1.0 - head[1] * p)) ** (1.0 / p)
    if _power_diverges(phi, p):
        # m_phi(s) >= s^{-alpha}, so the integral diverges, at alpha p = 1 too
        return INF
    # scalar powers: numpy's vector pow may round apart from the C library's
    unit = phi.unit
    val = _dyadic_integral(lambda s: _pow_each(_m_phi_values(unit, np.atleast_1d(s)), p), 1.0)
    if not math.isfinite(val):
        return INF
    return val ** (1.0 / p)


# ---------------------------------------------------------------------------
# the criteria report
# ---------------------------------------------------------------------------

TRUE, FALSE, INCONCLUSIVE = "true", "false", "inconclusive"

CONDITION_IDS = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"]
COMPLETE_IDS = ["c-i", "c-ii", "c-iii", "c-iv"]

# implications that provably hold between the conditions: a true antecedent
# with a false consequent is a coherence bug worth failing loudly over
IMPLICATIONS = [("ii", "i"), ("iv", "i"), ("v", "iv"), ("vi", "iv"),
                ("vii", "iv"), ("viii", "vii")]


@dataclass
class ConditionVerdict:
    cid: str
    status: str
    certificate: dict = field(default_factory=dict)
    note: str = ""

    @property
    def is_true(self):
        return self.status == TRUE

    def to_dict(self):
        return {"id": self.cid, "status": self.status,
                "certificate": {k: (v if not isinstance(v, float) or math.isfinite(v)
                                    else "inf")
                                for k, v in self.certificate.items()},
                "note": self.note}


@dataclass
class CriteriaReport:
    spec_desc: str
    p: float
    delta: float
    complete: bool
    conditions: dict
    ac_norm: bool | None
    warnings: list
    density_verdict: bool

    def rows(self):
        out = []
        for cid, v in self.conditions.items():
            cert = ", ".join(f"{k}={_fmt(v2)}" for k, v2 in v.certificate.items())
            out.append((cid, v.status, cert, v.note))
        return out

    def to_dict(self):
        return {
            "spec": self.spec_desc,
            "p": self.p,
            "delta": self.delta,
            "complete": self.complete,
            "conditions": {cid: v.to_dict() for cid, v in self.conditions.items()},
            "ac_norm": self.ac_norm,
            "warnings": self.warnings,
            "density_verdict": self.density_verdict,
        }

    def table(self):
        lines = [f"space {self.spec_desc}  p={self.p:g}  delta={self.delta:g}"
                 f"  complete={self.complete}"]
        for cid, status, cert, note in self.rows():
            lines.append(f"  ({cid:>5}) {status:<12} {cert}  {note}")
        lines.append(f"  absolute continuity: {self.ac_norm}")
        for w in self.warnings:
            lines.append(f"  warning: {w}")
        lines.append(f"  density verdict: {self.density_verdict}")
        return "\n".join(lines)


def _fmt(x):
    if isinstance(x, float):
        return "inf" if math.isinf(x) else f"{x:.6g}"
    return str(x)


def _status(ok):
    """The status of a rule's outcome: True, False, or None when undecided."""
    return INCONCLUSIVE if ok is None else TRUE if ok else FALSE


def density_criteria_report(spec: NormSpec, p, complete_space=False,
                            delta=1.0) -> CriteriaReport:
    """Evaluate the nine density conditions (plus the complete-space
    relaxations) with per-condition certificates.

    Conditions are certified from closed forms and exact indices only;
    where only a grid estimate exists (the Zippin index of a non-power
    shape, concavity of a non-power shape near zero) the verdict is
    inconclusive.  The embedding rules of (i)-(iii) read the family's
    Lorentz index q0 (``lorentz_q`` in the family table): where the
    fundamental function is c t^a near 0, X is L^(1/a,q0) there.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    p = float(p)
    phi = spec.fundamental_phi()
    if phi is None:
        raise ValueError("spec has no computable fundamental function")
    pe0 = _power_on(phi, 0.0, (phi.breaks or [INF])[0])
    q0 = None if pe0 is None else _FAMILIES[spec.family].lorentz_q(spec, pe0[1])
    verdicts = {}

    def put(cids, ok, cert, note):
        """One verdict per id of cids from the rule's outcome ok."""
        for cid in cids:
            verdicts[cid] = ConditionVerdict(cid, _status(ok), dict(cert), note)

    # (ii)  X embeds in Lambda^p_{psi,fm}: near 0, X = L^(1/a,q0) and
    # Lambda^p_psi is L^(1/a,p) when a <= 1/p, L^p otherwise, so X embeds
    # iff a <= 1/p and q0 <= p
    if q0 is None:
        put(["ii"], None, {}, "no embedding rule for this family")
    else:
        put(["ii"], pe0[1] <= 1.0 / p and q0 <= p, {"alpha": pe0[1], "q0": q0},
            "second Lorentz index rule")

    # (iii)  L^{p,1} into X_fm and X into L^p_fm
    if pe0 is not None and pe0[1] != 1.0 / p:
        put(["iii"], False, {"alpha_near_zero": pe0[1]},
            "fundamental function not comparable to t^{1/p}")
    elif q0 is not None:
        put(["iii"], q0 <= p, {"q0": q0}, "L^(p,q0) lies in L^p iff q0 <= p")
    else:
        put(["iii"], None, {}, "embedding side undecidable")

    # (iv)  criterion B
    B = criterion_B(phi, p, delta)
    put(["iv"], math.isfinite(B), {"B": B, "delta": delta}, "weak-boundedness supremum")

    # (v) / (vi)  concavity and quasi-concavity of a higher power; (c-i) /
    # (c-ii) relax them on a complete space
    if pe0 is None:
        # concavity on a grid window says nothing about the shape below
        # it: power_log(0.51, 1) passes on (1e-8, 1) but not near 0
        put(["v", "vi", "c-i", "c-ii"], None, {}, "no rule for this shape near zero")
    else:
        alpha = pe0[1]
        if alpha == 0.0:
            put(["v", "vi"], True, {"witness_q": max(2.0 * p, 2.0)},
                "constant shape near zero")
        elif alpha < 1.0 / p:
            put(["v", "vi"], True, {"witness_q": 1.0 / alpha}, "power rule: q*alpha <= 1")
        else:
            put(["v", "vi"], False, {"alpha": alpha}, "needs q > p with q*alpha <= 1")
        put(["c-i", "c-ii"], alpha <= 1.0 / p, {"alpha": alpha}, "power rule: p*alpha <= 1")

    # (vii)  m_phi in L^p(0,1)
    mn = m_phi_norm(phi, p)
    put(["vii"], math.isfinite(mn), {"m_phi_Lp": mn}, "quasi-concavity modulus")

    # (viii)  upper fundamental index < 1/p; (c-iii) <= 1/p
    z = zippin_upper(phi)
    beta = z.beta_upper
    note = "exact power index" if z.beta_exact else "grid estimate certifies no bound"
    put(["viii"], beta < 1.0 / p if z.beta_exact else None,
        {"beta_upper": beta, "threshold": 1.0 / p}, note)
    put(["c-iii"], beta <= 1.0 / p + 1e-12 if z.beta_exact else None,
        {"beta_upper": beta}, note)

    # (ix)  upper Boyd index < 1/p; (c-iv) <= 1/p
    b = _boyd_bounds(spec, _S_GRID, z)
    if b.alpha_exact:
        alpha = b.alpha_lower
        put(["ix"], alpha < 1.0 / p, {"alpha": alpha, "threshold": 1.0 / p}, "closed form")
        put(["c-iv"], alpha <= 1.0 / p + 1e-12, {"alpha": alpha}, "closed form")
    else:
        # the Boyd index is at least the fundamental index of the norms of
        # indicators: where that is exact, it fails (ix) from 1/p on and
        # (c-iv) above 1/p
        lower, note = b.alpha_lower, "Boyd index at least the exact indicator index"
        if z.beta_exact and lower >= 1.0 / p:
            put(["ix"], False, {"alpha_lower": lower, "threshold": 1.0 / p}, note)
        else:
            put(["ix"], None, {"alpha_lower": lower, "threshold": 1.0 / p},
                "lower bounds cannot certify a strict upper-index inequality")
        if z.beta_exact and lower > 1.0 / p + 1e-12:
            put(["c-iv"], False, {"alpha_lower": lower}, note)
        else:
            put(["c-iv"], None, {}, "no closed form for the Boyd index")

    # (i)  X embeds in M^p_loc(X): p = 1 always, else via (ii) or (iv)
    if p == 1.0:
        put(["i"], True, {}, "X into M(X) with embedding norm 1")
    elif verdicts["ii"].is_true:
        put(["i"], True, {}, "via (ii)")
    elif verdicts["iv"].is_true:
        put(["i"], True, {"B": B}, "weak-boundedness bound controls the local norm")
    elif q0 is not None and math.isfinite(q0):
        put(["i"], False, {"q0": q0}, "Lorentz rule")
    else:
        put(["i"], None, {}, "no embedding certificate")

    # coherence: a true antecedent never leaves its consequent undecided
    # ((iv) and (vii) come from isfinite, and (i) is true wherever (ii) or
    # (iv) is), so nothing is upgraded and one pass checks every implication
    for (a, b) in IMPLICATIONS:
        if verdicts[a].is_true and verdicts[b].status == FALSE:
            raise InvariantViolated(f"criteria coherence violated: ({a}) true but ({b}) false")

    ordered = {cid: verdicts[cid]
               for cid in CONDITION_IDS + (COMPLETE_IDS if complete_space else [])}

    ac = spec.absolutely_continuous
    warnings = []
    if ac is False:
        warnings.append(
            "norm lacks absolute continuity (weak-type space): the density "
            "criteria do not apply; truncations need not converge"
        )
    elif ac is None:
        warnings.append("absolute continuity unknown for this family")
    any_true = any(v.is_true for v in ordered.values())
    verdict = bool(any_true and ac is not False)
    return CriteriaReport(
        spec_desc=spec.describe(),
        p=p,
        delta=float(delta),
        complete=bool(complete_space),
        conditions=ordered,
        ac_norm=ac,
        warnings=warnings,
        density_verdict=verdict,
    )
