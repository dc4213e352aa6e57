"""Maximal operators, Hardy and dilation operators, growth indices, and the
boundedness criteria behind the Lipschitz-density verdicts.

Half-line operators act on decreasing GridFns with exact cell calculus;
the metric-space maximal operator enumerates the O(n^2) distinct balls by
brute force.  Index estimates are labelled exact or not; the criteria
report certifies an index inequality from exact indices only.  Powers of a
shape are integrated over its pieces in spaces._power_integral_rows alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvariantViolated, ZeroFunction
from .metric import MMS, _ball_index
from .rearrange import GridFn, WeightedSamples, decreasing_rearrangement
from .spaces import (
    _FAMILIES,
    FundamentalFn,
    NormSpec,
    PowerPhi,
    PsiMajorantPhi,
    _MaxPhi,
    _dyadic_integral,
    _mp_values,
    _power_integral_rows,
    geometric_grid,
    norm,
)

INF = math.inf


# ---------------------------------------------------------------------------
# operators on the half-line
# ---------------------------------------------------------------------------


def maximal_decreasing(ustar: GridFn, p, t) -> float:
    """M_p u*(t) = ((1/t) int_0^t u*^p)^{1/p}, exact per cell."""
    if p < 1:
        raise ValueError("p >= 1 required")
    if not t > 0:
        raise ValueError("t > 0 required")
    return float(_mp_values(ustar, p, np.asarray([t], dtype=float))[0])


def hardy(a, ustar: GridFn, t) -> float:
    """Hardy-type average P_a u*(t) = t^{-a} int_0^t u*(s) s^{a-1} ds."""
    if not 0 < a <= 1:
        raise ValueError("a must lie in (0, 1]")
    t = float(t)
    if t <= 0:
        raise ValueError("t > 0 required")
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
    distinct distances); the supremum is order-independent.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    u = np.abs(np.asarray(u, dtype=float))
    w = space.weights
    wup = w * u ** p
    out = np.zeros(space.n)
    for _, order, ds, last in _ball_index(space):
        cw = np.cumsum(w[order], axis=1)
        cf = np.cumsum(wup[order], axis=1)
        ends = last & (ds < INF)
        means = np.full(ds.shape, -INF)
        means[ends] = (cf[ends] / cw[ends]) ** (1.0 / p)
        # the balls about a center holding its k-th nearest point end at k or later
        suffix = np.maximum.accumulate(means[:, ::-1], axis=1)[:, ::-1]
        np.maximum.at(out, order.ravel(), suffix.ravel())
    return out


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

    ``beta_upper`` is the upper fundamental index: exact for pure-power
    shapes (``beta_exact``), otherwise a grid estimate that bounds the
    true index from neither side.  ``alpha_lower`` comes from candidate
    functions only, unless a closed form applies (``alpha_exact``).
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
        return {
            "k_samples": [[float(s), float(k)] for (s, k) in self.k_samples],
            "h_samples": [[float(s), float(h)] for (s, h) in self.h_samples],
            "beta_upper": self.beta_upper,
            "alpha_lower": self.alpha_lower,
            "alpha_exact": self.alpha_exact,
            "beta_exact": self.beta_exact,
            "lower_bound_only": self.lower_bound_only,
            "note": self.note,
        }


def _power_near_zero(phi):
    """(coeff, alpha) of the dominant power of phi as t -> 0, or None."""
    if isinstance(phi, PowerPhi):
        return (phi.coeff, phi.alpha)
    if isinstance(phi, _MaxPhi):
        pes = []
        for comp in phi.phis:
            pe = _power_near_zero(comp)
            if pe is None:
                return None
            pes.append(pe)
        # smaller exponent dominates near zero (larger value for t < 1)
        return min(pes, key=lambda ce: (ce[1], -ce[0]))
    if isinstance(phi, PsiMajorantPhi):
        base = _power_near_zero(phi.phi)
        if base is None:
            return None
        c, alpha = base
        inv_p = 1.0 / phi.p
        if alpha < inv_p:
            return (c, alpha)
        # the grid supremum freezes and psi behaves like t^{1/p}
        coeff = float(np.max(phi.suffix_max)) if len(phi.suffix_max) else c
        return (coeff, inv_p)
    return None


def _zippin_exact_alpha(phi):
    """Exponent alpha with k(s) = s^alpha exactly, when the shape allows it."""
    if isinstance(phi, PowerPhi):
        return phi.alpha
    if isinstance(phi, _MaxPhi):
        alphas = [_zippin_exact_alpha(c) for c in phi.phis]
        caps_inf = all(math.isinf(c.cap) for c in phi.phis)
        if any(a is None for a in alphas) or not caps_inf:
            return None
        return max(alphas)
    return None


# the dilation factors s of the index reports, built once
_S_GRID = np.geomspace(2.0, 4096.0, 12)


def zippin_upper(phi: FundamentalFn, s_grid=None) -> IndexReport:
    """k_X(s) = sup_t phi(st)/phi(t) and the upper fundamental index.

    Exact for power shapes.  Otherwise the grid supremum under-estimates
    k(s), so the reported index is only an estimate: it can fall below
    the true index (0.496 against 0.55 for ``power_log(0.55, 1.0)``) and
    certifies no inequality.
    """
    s_grid = _S_GRID if s_grid is None else np.asarray(s_grid, dtype=float)
    if np.any(s_grid <= 1):
        raise ValueError("s grid must be > 1")
    alpha = _zippin_exact_alpha(phi)
    ks = []
    if alpha is not None:
        for s in s_grid:
            ks.append((float(s), float(s ** alpha)))
        beta = alpha
        exact = True
    else:
        hi = phi.cap if math.isfinite(phi.cap) else 1e4
        tg = np.unique(np.concatenate((
            geometric_grid(1e-10, max(hi * 4, 1.0), 512),
            phi.kinks(1e-10, max(hi * 4, 1.0)),
        )))
        den = np.maximum(np.asarray(phi(tg), dtype=float), 1e-300)
        for s in s_grid:
            vals = np.asarray(phi(s * tg), dtype=float) / den
            ks.append((float(s), float(np.max(vals))))
        beta = min(math.log(k) / math.log(s) for (s, k) in ks if k > 0)
        exact = False
    return IndexReport(
        k_samples=ks,
        beta_upper=float(beta),
        beta_exact=exact,
        note="k exact (power shape)" if exact else "k by grid supremum",
    )


def _default_boyd_candidates():
    """Decreasing test functions: indicators and truncated power profiles."""
    cands = []
    for a in (0.125, 0.5, 1.0, 4.0):
        cands.append(GridFn([0.0, a], [1.0]))
    for theta in (0.2, 0.5, 0.8):
        edges = np.concatenate(([0.0], np.geomspace(1e-4, 4.0, 40)))
        vals = edges[1:] ** (-theta)
        cands.append(GridFn(edges, vals))
    return tuple(cands)


# built once: every report without its own candidates shares them
_BOYD_CANDIDATES = _default_boyd_candidates()


def boyd_upper_lowerbound(spec: NormSpec, candidates=None, s_grid=None) -> IndexReport:
    """Dilation-norm samples h_X(s) and the upper Boyd index.

    Closed-form families report the exact index; otherwise candidate
    functions give lower bounds only (flagged, never used to certify a
    strict inequality downstream).  Where the family table gives a row
    evaluator (the sup-M_p families), one call per candidate returns its
    norm and the norms of all its dilations E_{1/s}: row 0 divides the
    candidate's edges by 1, row k + 1 by 1/s_k, exactly as ``dilation``
    does.  Other families take ``norm(dilation(f, 1/s))`` once per s.
    """
    s_grid = _S_GRID if s_grid is None else np.asarray(s_grid, dtype=float)
    exact = spec.boyd_alpha_exact()
    if exact is not None:
        hs = [(float(s), float(s ** exact)) for s in s_grid]
        return IndexReport(
            h_samples=hs,
            alpha_lower=float(exact),
            alpha_exact=True,
            lower_bound_only=False,
            note="dilation norm closed form",
        )
    if not np.all((s_grid > 0) & np.isfinite(s_grid)):
        raise ValueError("s grid must be positive and finite")
    rows = _FAMILIES[spec.family].rows
    divisors = np.concatenate(([1.0], 1.0 / s_grid))
    bases, dilated = [], []
    for f in _BOYD_CANDIDATES if candidates is None else candidates:
        if not f.is_decreasing():
            raise ValueError("Boyd candidates must be decreasing GridFns")
        vals = rows(f, spec, divisors) if rows is not None else [norm(f, spec)]
        base = float(vals[0])
        if base > 0 and math.isfinite(base):
            bases.append(base)
            dilated.append(vals[1:] if rows is not None else
                           [norm(dilation(f, 1.0 / s), spec) for s in s_grid])
    if not bases:
        raise ValueError("no candidate with nonzero finite norm")
    dilated = np.asarray(dilated, dtype=float)
    ratios = np.where(np.isfinite(dilated), dilated / np.asarray(bases)[:, None], 0.0)
    best = np.max(ratios, axis=0, initial=0.0)
    hs = [(float(s), float(h)) for s, h in zip(s_grid, best)]
    alpha_est = max(
        math.log(h) / math.log(s) for (s, h) in hs if h > 0
    )
    return IndexReport(
        h_samples=hs,
        alpha_lower=float(alpha_est),
        alpha_exact=False,
        lower_bound_only=True,
        note="candidate lower bounds only",
    )


def indices_report(spec: NormSpec, s_grid=None) -> IndexReport:
    """Combined Zippin/Boyd report for a norm specification."""
    phi = spec.fundamental_phi()
    if phi is None:
        raise ValueError("spec has no computable fundamental function")
    z = zippin_upper(phi, s_grid)
    b = boyd_upper_lowerbound(spec, s_grid=s_grid)
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
    spaces on sets of finite measure; divergence is flagged as inf.

    The inner integral adds up the segments between grid points in order;
    spaces._power_integral_rows integrates phi^{-p} over all of them in one
    walk, bit-identical to a segment-by-segment sweep whenever phi acts
    elementwise.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    pe = _power_near_zero(phi)
    if isinstance(phi, PowerPhi) and (math.isinf(phi.cap) or phi.cap >= delta):
        if phi.alpha == 0.0:
            return 1.0
        if phi.alpha * p >= 1.0:
            return INF
        return 1.0 / (1.0 - phi.alpha * p)
    if pe is not None and pe[1] * p >= 1.0:
        # inner integral already diverges at zero
        return INF
    lo = delta * 1e-18
    ts = np.unique(np.concatenate((
        geometric_grid(lo, delta, 160),
        phi.kinks(lo, delta),
        [delta],
    )))
    ts = ts[(ts > 0) & (ts <= delta)]
    inners = np.cumsum(_power_integral_rows(phi, np.concatenate(([0.0], ts[:-1])), ts, -p, 1))
    if not np.all(np.isfinite(inners)):
        return INF
    vals = np.asarray(phi(ts), dtype=float) ** p * inners / ts
    best = float(np.max(vals))
    # refinement-doubling check toward zero (values on descending quarters)
    small = vals[ts <= ts[0] * 1e4]
    if len(small) >= 3:
        descending = small[::-1]
        doublings = 0
        for prev, cur in zip(descending[:-1], descending[1:]):
            if prev > 0 and cur >= 2.0 * prev and cur >= best * 0.5:
                doublings += 1
                if doublings >= 2:
                    return INF
            else:
                doublings = 0
    return best


def m_phi(phi: FundamentalFn, s) -> float:
    """m_phi(s) = sup_{0<t<1} phi(t) / phi(st) for s in (0, 1)."""
    if not 0 < s < 1:
        raise ValueError("s must lie in (0, 1)")
    if isinstance(phi, PowerPhi) and (math.isinf(phi.cap) or phi.cap >= 1.0):
        return s ** (-phi.alpha)
    return float(_m_phi_at(phi, np.asarray([s], dtype=float))[0])


_M_PHI_GRID = geometric_grid(1e-12, 1.0, 192)


def _m_phi_at(phi, ss):
    """m_phi at every s in ss at once, each over its own grid.

    The grid of one s is a shared base (192 geometric points, phi's kinks
    and 1) joined with phi's kinks divided by s, all within (0, 1].  phi
    runs once on the shared base, bit-identical to a run per s whenever phi
    acts elementwise.
    """
    kinks = phi.kinks(1e-12, 1.0)
    base = np.unique(np.concatenate((_M_PHI_GRID, kinks, [1.0])))
    base = base[(base > 0) & (base <= 1.0)]
    ss = ss[:, None]
    own = kinks / ss
    ts = np.concatenate((np.broadcast_to(base, (len(ss), len(base))), own), axis=1)
    num = np.concatenate((
        np.broadcast_to(np.asarray(phi(base), dtype=float), (len(ss), len(base))),
        np.asarray(phi(own.ravel()), dtype=float).reshape(own.shape)), axis=1)
    den = np.asarray(phi((ss * ts).ravel()), dtype=float).reshape(ts.shape)
    ratios = num / np.maximum(den, 1e-300)
    return np.max(np.where((ts > 0) & (ts <= 1.0), ratios, -INF), axis=1)


def m_phi_norm(phi: FundamentalFn, p) -> float:
    """L^p(0,1) norm of the quasi-concavity modulus m_phi; inf on divergence."""
    if p < 1:
        raise ValueError("p >= 1 required")
    if isinstance(phi, PowerPhi) and (math.isinf(phi.cap) or phi.cap >= 1.0):
        e = phi.alpha * p
        if e >= 1.0:
            return INF
        return (1.0 / (1.0 - e)) ** (1.0 / p)
    pe = _power_near_zero(phi)
    if pe is not None and pe[1] * p > 1.0:
        # m_phi(s) >= s^{-alpha} near zero, so the integral diverges
        return INF

    def integrand(s):
        ms = _m_phi_at(phi, np.atleast_1d(np.asarray(s, dtype=float)))
        # scalar powers: numpy's vector pow may round apart from the C library's
        return np.asarray([m ** p for m in ms.tolist()])

    val = _dyadic_integral(integrand, 1.0)
    if not math.isfinite(val):
        return INF
    return val ** (1.0 / p)


# ---------------------------------------------------------------------------
# the criteria report
# ---------------------------------------------------------------------------

TRUE, FALSE, INCONCLUSIVE = "true", "false", "inconclusive"

CONDITION_IDS = ["i", "ii", "iii", "iv", "v", "vi", "vii", "viii", "ix"]
COMPLETE_IDS = ["c-i", "c-ii", "c-iii", "c-iv"]

# implications that provably hold between the conditions; closure upgrades
# inconclusive verdicts, and a true antecedent with a false consequent is a
# coherence bug worth failing loudly over
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


def density_criteria_report(spec: NormSpec, p, complete_space=False,
                            delta=1.0) -> CriteriaReport:
    """Evaluate the nine density conditions (plus the complete-space
    relaxations) with per-condition certificates.

    Conditions are certified from closed forms and exact indices only;
    where only a grid estimate exists (the Zippin index of a non-power
    shape, concavity of a non-power shape near zero) the verdict is
    inconclusive.
    """
    if p < 1:
        raise ValueError("p >= 1 required")
    p = float(p)
    phi = spec.fundamental_phi()
    if phi is None:
        raise ValueError("spec has no computable fundamental function")
    pe0 = _power_near_zero(phi)
    rule = _FAMILIES[spec.family].density
    verdicts = {}

    lorentz_like = rule == "lorentz"
    p0, q0 = (spec.p, spec.p if spec.q is None else spec.q) if lorentz_like else (None, None)

    # (ii)  X embeds in Lambda^p_{psi,fm}
    if lorentz_like:
        if p <= p0 and q0 <= p:
            verdicts["ii"] = ConditionVerdict(
                "ii", TRUE,
                {"target": f"L^({p0:g},{p:g}) locally", "q0": q0},
                "second Lorentz index rule")
        else:
            verdicts["ii"] = ConditionVerdict(
                "ii", FALSE,
                {"target": (f"L^({p0:g},{p:g})" if p <= p0 else f"L^{p:g}")
                 + " locally", "q0": q0},
                "second Lorentz index rule")
    elif rule == "weak" or (rule == "weak-power" and pe0 is not None):
        verdicts["ii"] = ConditionVerdict(
            "ii", FALSE, {}, "weak-type space never embeds in a Lambda space")
    else:
        verdicts["ii"] = ConditionVerdict("ii", INCONCLUSIVE, {},
                                          "no embedding rule for this family")

    # (iii)  L^{p,1} into X_fm and X into L^p_fm
    if lorentz_like:
        ok = (p == p0) and (q0 <= p0)
        verdicts["iii"] = ConditionVerdict(
            "iii", TRUE if ok else FALSE,
            {"phi_comparable": p == p0, "into_Lp": q0 <= p0 and p == p0},
            "fundamental-function comparability")
    elif rule == "weak":
        verdicts["iii"] = ConditionVerdict(
            "iii", FALSE, {"into_Lp": False}, "weak space is not inside L^p")
    else:
        comparable = None
        if pe0 is not None:
            comparable = abs(pe0[1] - 1.0 / p) < 1e-12
        if comparable is False:
            verdicts["iii"] = ConditionVerdict(
                "iii", FALSE, {"alpha_near_zero": pe0[1]},
                "fundamental function not comparable to t^{1/p}")
        else:
            verdicts["iii"] = ConditionVerdict("iii", INCONCLUSIVE, {},
                                               "embedding side undecidable")

    # (iv)  criterion B
    B = criterion_B(phi, p, delta)
    verdicts["iv"] = ConditionVerdict(
        "iv", TRUE if math.isfinite(B) else FALSE, {"B": B, "delta": delta},
        "weak-boundedness supremum")

    # (v) / (vi)  concavity and quasi-concavity of a higher power
    if pe0 is not None:
        alpha = pe0[1]
        if alpha == 0.0:
            witness = max(2.0 * p, 2.0)
            verdicts["v"] = ConditionVerdict("v", TRUE, {"witness_q": witness},
                                             "constant shape near zero")
            verdicts["vi"] = ConditionVerdict("vi", TRUE, {"witness_q": witness},
                                              "constant shape near zero")
        elif alpha * p < 1.0:
            witness = 1.0 / alpha
            verdicts["v"] = ConditionVerdict("v", TRUE, {"witness_q": witness},
                                             "power rule: q*alpha <= 1")
            verdicts["vi"] = ConditionVerdict("vi", TRUE, {"witness_q": witness},
                                              "power rule: q*alpha <= 1")
        else:
            verdicts["v"] = ConditionVerdict("v", FALSE, {"alpha": alpha},
                                             "needs q > p with q*alpha <= 1")
            verdicts["vi"] = ConditionVerdict("vi", FALSE, {"alpha": alpha},
                                              "needs q > p with q*alpha <= 1")
    else:
        # concavity on a grid window says nothing about the shape below
        # it: power_log(0.51, 1) passes on (1e-8, 1) but not near 0
        for cid in ("v", "vi"):
            verdicts[cid] = ConditionVerdict(cid, INCONCLUSIVE, {},
                                             "no rule for this shape near zero")

    # (vii)  m_phi in L^p(0,1)
    mn = m_phi_norm(phi, p)
    verdicts["vii"] = ConditionVerdict(
        "vii", TRUE if math.isfinite(mn) else FALSE, {"m_phi_Lp": mn},
        "quasi-concavity modulus")

    # (viii)  upper fundamental index < 1/p
    z = zippin_upper(phi)
    beta = z.beta_upper
    if z.beta_exact:
        verdicts["viii"] = ConditionVerdict(
            "viii", TRUE if beta < 1.0 / p else FALSE,
            {"beta_upper": beta, "threshold": 1.0 / p}, "exact power index")
    else:
        verdicts["viii"] = ConditionVerdict(
            "viii", INCONCLUSIVE, {"beta_upper": beta, "threshold": 1.0 / p},
            "grid estimate certifies no bound")

    # (ix)  upper Boyd index < 1/p
    alpha_exact = spec.boyd_alpha_exact()
    if alpha_exact is not None:
        verdicts["ix"] = ConditionVerdict(
            "ix", TRUE if alpha_exact < 1.0 / p else FALSE,
            {"alpha": alpha_exact, "threshold": 1.0 / p}, "closed form")
    else:
        b = boyd_upper_lowerbound(spec)
        verdicts["ix"] = ConditionVerdict(
            "ix", INCONCLUSIVE,
            {"alpha_lower": b.alpha_lower, "threshold": 1.0 / p},
            "lower bounds cannot certify a strict upper-index inequality")

    # (i)  X embeds in M^p_loc(X): p = 1 always, else via (ii) or (iv)
    if p == 1.0:
        verdicts["i"] = ConditionVerdict(
            "i", TRUE, {}, "X into M(X) with embedding norm 1")
    elif verdicts["ii"].is_true:
        verdicts["i"] = ConditionVerdict("i", TRUE, {}, "via (ii)")
    elif verdicts["iv"].is_true:
        verdicts["i"] = ConditionVerdict(
            "i", TRUE, {"B": verdicts["iv"].certificate["B"]},
            "weak-boundedness bound controls the local norm")
    elif lorentz_like:
        ok = p <= p0 and q0 <= p
        verdicts["i"] = ConditionVerdict("i", TRUE if ok else FALSE,
                                         {"p0": p0, "q0": q0}, "Lorentz rule")
    else:
        verdicts["i"] = ConditionVerdict("i", INCONCLUSIVE, {},
                                         "no embedding certificate")

    # complete-space relaxations
    if complete_space:
        if pe0 is not None:
            alpha = pe0[1]
            ok = alpha * p <= 1.0
            note = "power rule: p*alpha <= 1"
            verdicts["c-i"] = ConditionVerdict("c-i", TRUE if ok else FALSE,
                                               {"alpha": alpha}, note)
            verdicts["c-ii"] = ConditionVerdict("c-ii", TRUE if ok else FALSE,
                                                {"alpha": alpha}, note)
        else:
            for cid in ("c-i", "c-ii"):
                verdicts[cid] = ConditionVerdict(cid, INCONCLUSIVE, {},
                                                 "no rule for this shape near zero")
        beta = z.beta_upper
        if z.beta_exact:
            verdicts["c-iii"] = ConditionVerdict(
                "c-iii", TRUE if beta <= 1.0 / p + 1e-12 else FALSE,
                {"beta_upper": beta}, "exact power index")
        else:
            verdicts["c-iii"] = ConditionVerdict(
                "c-iii", INCONCLUSIVE, {"beta_upper": beta},
                "grid estimate certifies no bound")
        if alpha_exact is not None:
            verdicts["c-iv"] = ConditionVerdict(
                "c-iv", TRUE if alpha_exact <= 1.0 / p + 1e-12 else FALSE,
                {"alpha": alpha_exact}, "closed form")
        else:
            verdicts["c-iv"] = ConditionVerdict(
                "c-iv", INCONCLUSIVE, {},
                "no closed form for the Boyd index")

    # implication closure
    changed = True
    while changed:
        changed = False
        for (a, b) in IMPLICATIONS:
            if a in verdicts and b in verdicts and verdicts[a].is_true:
                if verdicts[b].status == FALSE:
                    raise InvariantViolated(
                        f"criteria coherence violated: ({a}) true but ({b}) false"
                    )
                if verdicts[b].status == INCONCLUSIVE:
                    verdicts[b] = ConditionVerdict(
                        b, TRUE, verdicts[b].certificate, f"implied by ({a})")
                    changed = True

    ordered = {cid: verdicts[cid] for cid in CONDITION_IDS}
    if complete_space:
        ordered.update({cid: verdicts[cid] for cid in COMPLETE_IDS})

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
