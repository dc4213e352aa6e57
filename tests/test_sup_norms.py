"""Property tests for the sup-type norm evaluators and the Lambda^q fundamental.

The loops below are the per-point walks that the masked numpy supremum in
``_sup_mp_phi`` and ``_sup_star_phi`` replaced; they are kept here as
oracles.  ``_sup_mp_phi`` always evaluated ``phi`` on the whole array, so it
must match its loop bit for bit.  The old ``_sup_star_phi`` called ``phi``
once per cell, and numpy's array ``pow`` and ``log`` can round a last ulp
apart from the scalar path: it must match the loop run on array-evaluated
``phi`` bit for bit, and the scalar loop within 2 ulp.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rikit.spaces as spaces
from rikit.errors import UnsupportedCombination
from rikit.maximal import boyd_upper_lowerbound, density_criteria_report, dilation, indices_report
from rikit.rearrange import GridFn
from rikit.spaces import (
    DEFAULT_SUP_POINTS,
    INF,
    FundamentalFn,
    NormSpec,
    _LambdaQFundamental,
    _MaxPhi,
    _mp_values,
    _power_integral_rows,
    _power_on,
    _sup_mp_phi,
    _sup_star_phi,
    geometric_grid,
    norm,
    psi_majorant_phi,
)

# -- loop references --------------------------------------------------------------


def loop_sup_mp_phi(ustar, phi, p, window_hi=None):
    """The per-point loop that ``_sup_mp_phi`` replaced."""
    if ustar.ncells == 0 and ustar.tail == 0:
        return 0.0
    has_generic = any(
        kind not in ("power", "affine")  # a power-log head has no endpoint rule
        for (_, _, kind, _) in phi.pieces(1e-12, max(1.0, ustar.support_end, 2.0))
    )
    hi_default = max(ustar.support_end, 1.0)
    if math.isfinite(phi.cap):
        hi_default = max(hi_default, phi.cap)
    hi = window_hi if window_hi is not None else 2.0 * hi_default
    pts = [ustar.edges[ustar.edges > 0], phi.kinks(0.0, hi), np.asarray([hi])]
    if window_hi is None or window_hi >= 1.0:
        pts.append(np.asarray([1.0]))
    if has_generic:
        lo = min(ustar.edges[1] if ustar.ncells else hi, hi) * 1e-6
        pts.append(geometric_grid(max(lo, hi * 1e-14), hi, DEFAULT_SUP_POINTS))
    ts = np.unique(np.concatenate(pts))
    ts = ts[(ts > 0) & (ts <= hi)]
    phis = np.asarray(phi(ts), dtype=float)
    mps = _mp_values(ustar, p, ts)
    best = 0.0
    for mp_val, ph in zip(mps, phis):
        if not math.isfinite(mp_val):
            if ph > 0:
                return INF
            continue
        best = max(best, mp_val * ph)
    first = ustar.values[0] if ustar.ncells else ustar.tail
    p0 = phi.phi0plus()
    if p0 > 0:
        if not math.isfinite(first):
            return INF
        best = max(best, first * p0)
    if window_hi is not None:
        return best
    tail_cand = loop_mp_tail(ustar, phi, p)
    if not math.isfinite(tail_cand):
        return INF
    return max(best, tail_cand)


def loop_mp_tail(ustar, phi, p):
    """The limit of M_p u*(t) phi(t) as t -> inf, case by case."""
    top = phi.value_inf()
    if ustar.tail > 0:
        return ustar.tail * top if math.isfinite(top) else INF
    if math.isfinite(top):
        return 0.0
    pe = _power_on(phi, (phi.breaks or [0.0])[-1], INF)
    if pe is None:
        raise UnsupportedCombination("no power at infinity")
    if pe[1] < 1.0 / p:
        return 0.0
    total = ustar.total_integral(p)
    if total == 0.0:
        return 0.0
    if pe[1] == 1.0 / p and total < INF:
        return pe[0] * total ** (1.0 / p)
    return INF


def loop_sup_star_phi(ustar, phi, on_array=False):
    """The per-cell loop that ``_sup_star_phi`` replaced.

    With ``on_array`` the loop reads phi from one array evaluation on the
    right cell edges instead of one scalar call per cell.
    """
    e = ustar.edges
    v = ustar.values
    pvs = np.asarray(phi(e[1:]), dtype=float) if on_array else None
    best = 0.0
    for i in range(len(v)):
        pv = float(pvs[i]) if on_array else float(phi(e[i + 1]))
        if not math.isfinite(v[i]):
            if pv > 0:
                return INF
            continue
        best = max(best, v[i] * pv)
    if ustar.tail > 0:
        top = phi.value_inf()
        if not math.isfinite(top):
            return INF
        best = max(best, ustar.tail * top)
    return best


# -- inputs -----------------------------------------------------------------------

SHAPES = {
    "power(0)": FundamentalFn.power(0.0),
    "power(0.3)": FundamentalFn.power(0.3),
    "power(0.5,2,cap 3)": FundamentalFn.power(0.5, 2.0, 3.0),
    "power(1)": FundamentalFn.power(1.0),
    "powerlog(0.4,1)": FundamentalFn.power_log(0.4, 1.0),
    "powerlog(0.6,-0.5)": FundamentalFn.power_log(0.6, -0.5),
    "powerlog(0.5,2,cap 0.1)": FundamentalFn.power_log(0.5, 2.0, cap=0.1),
    "sampled": FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5]),
    "psi(power(0.75),2)": psi_majorant_phi(FundamentalFn.power(0.75), 2.0),
    "psi(powerlog(0.3,-1),3)": psi_majorant_phi(FundamentalFn.power_log(0.3, -1.0), 3.0),
    "max(power 0.3, power 0.7)": _MaxPhi([FundamentalFn.power(0.3),
                                          FundamentalFn.power(0.7, 0.5)]),
    "max(powerlog, sampled)": _MaxPhi([FundamentalFn.power_log(0.5, 1.0),
                                       FundamentalFn.sampled([1.0, 4.0], [0.5, 1.0])]),
}

_MAGNITUDES = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def decreasing_gridfns(draw):
    """Decreasing GridFns with inf markers, zero cells and positive tails."""
    n = draw(st.integers(0, 12))
    widths = draw(st.lists(st.floats(1e-4, 50.0), min_size=n, max_size=n))
    vals = sorted(draw(st.lists(_MAGNITUDES | st.just(0.0), min_size=n, max_size=n)),
                  reverse=True)
    n_inf = draw(st.integers(0, min(n, 2))) if draw(st.booleans()) else 0
    vals[:n_inf] = [INF] * n_inf
    if draw(st.integers(0, 5)) == 0:
        vals = [0.0] * n  # the zero function on a support
    last = vals[-1] if n else INF
    tail = 0.0
    if draw(st.booleans()) and last > 0:
        tail = min(last, draw(_MAGNITUDES)) if math.isfinite(last) else draw(_MAGNITUDES)
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    return GridFn(edges, vals, tail)


def same_bits(a, b):
    return float(a).hex() == float(b).hex()


def within_ulps(a, b, n):
    if a == b or not (math.isfinite(a) and math.isfinite(b)):
        return a == b
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


# -- the M_p supremum -------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(u=decreasing_gridfns(), shape=st.sampled_from(sorted(SHAPES)),
       p=st.sampled_from([1.0, 1.05, 2.0, 3.5]),
       window=st.sampled_from([None, 0.05, 0.5, 1.0, 7.0]))
def test_sup_mp_phi_matches_loop_bitwise(u, shape, p, window):
    phi = SHAPES[shape]
    assert same_bits(_sup_mp_phi(u, phi, p, window),
                     loop_sup_mp_phi(u, phi, p, window))


# -- the u* phi supremum ----------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(u=decreasing_gridfns(), shape=st.sampled_from(sorted(SHAPES)))
def test_sup_star_phi_matches_loop(u, shape):
    phi = SHAPES[shape]
    got = _sup_star_phi(u, phi)
    assert same_bits(got, loop_sup_star_phi(u, phi, on_array=True))
    assert within_ulps(got, loop_sup_star_phi(u, phi), 2)


CORNER_CASES = [GridFn([0.0], []), GridFn([0.0, 1.0], [0.0]), GridFn([0.0], [], 2.0),
                GridFn([0.0, 0.5, 2.0], [INF, 1.0]), GridFn([0.0, 0.5, 2.0], [INF, 0.0]),
                GridFn([0.0, 1e-3, 3.0], [5.0, 2.0], 0.5)]


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_corner_cases_match_loops(shape):
    # empty and zero functions, inf markers with and without mass, tails
    phi = SHAPES[shape]
    for u in CORNER_CASES:
        assert same_bits(_sup_star_phi(u, phi), loop_sup_star_phi(u, phi, on_array=True))
        for window in (None, 0.25, 4.0):
            assert same_bits(_sup_mp_phi(u, phi, 2.0, window),
                             loop_sup_mp_phi(u, phi, 2.0, window))


def test_an_unbounded_shape_needs_a_power_at_infinity():
    # the Lambda^q fundamental over a power-log shape grows like a power of
    # log t, with no power at infinity to read the limit of M_p f phi off
    spec = NormSpec.marcinkiewicz(
        NormSpec.lambda_q(FundamentalFn.power_log(0.5, 1), 2).fundamental_phi())
    with pytest.raises(UnsupportedCombination):
        norm(GridFn([0.0, 1.0], [1.0]), spec)
    # a positive tail diverges against any unbounded shape
    assert norm(GridFn([0.0, 1.0], [1.0], 0.5), spec) == INF


def test_sup_star_phi_closed_values():
    u = GridFn([0.0, 0.5, 2.0], [INF, 1.0])
    assert _sup_star_phi(u, FundamentalFn.power(0.5)) == INF
    # a positive tail needs a bounded shape
    tailed = GridFn([0.0, 1.0], [1.0], 0.5)
    assert _sup_star_phi(tailed, FundamentalFn.power(0.5)) == INF
    assert _sup_star_phi(tailed, FundamentalFn.power(0.5, cap=16.0)) == 2.0


# -- the Lambda^q fundamental -----------------------------------------------------


# power-log shapes by "alpha-beta", and shapes whose pieces all have closed
# forms, which the sweep's quadrature meets to a few ulps: (shape, rtol)
SWEEP_SHAPES = {
    **{f"{a}-{b}": (FundamentalFn.power_log(a, b), 1e-10)
       for a, b in [(0.5, 1.0), (0.3, -1.0), (0.7, 0.5), (0.5, -0.5)]},
    "capped-power": (FundamentalFn.power(0.4, 2.0, cap=3.0), 1e-13),
    "sampled": (FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5], cap=4.0), 1e-13),
    "max-of-powers": (_MaxPhi([FundamentalFn.power(0.5), FundamentalFn.power(0.8, 2.0)]),
                      1e-13),
}


@pytest.mark.parametrize("shape", list(SWEEP_SHAPES))
@pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
def test_lambda_q_fundamental_sweep_matches_quadrature(shape, q):
    phi, rtol = SWEEP_SHAPES[shape]
    ts = geometric_grid(1e-12, 10.0, 120)
    got = _LambdaQFundamental(phi, q)(ts)
    ref = np.array([_power_integral_rows(phi, [0.0], [t], q, 0)[0] for t in ts]) ** (1.0 / q)
    np.testing.assert_allclose(got, ref, rtol=rtol, atol=0.0)


def test_lambda_q_fundamental_scalar_and_edge_points():
    phi = FundamentalFn.power_log(0.5, 1.0)
    f = _LambdaQFundamental(phi, 2.0)
    value = f(0.25)
    assert type(value) is float
    assert value == _power_integral_rows(phi, [0.0], [0.25], 2.0, 0)[0] ** 0.5
    # unsorted, repeated and nonpositive points
    ts = np.array([0.3, -1.0, 0.0, 1e-5, 0.3, 2.0])
    got = f(ts)
    assert got[1] == got[2] == 0.0
    assert got[0] == got[4]
    ref = [_power_integral_rows(phi, [0.0], [t], 2.0, 0)[0] ** 0.5 for t in (0.3, 1e-5, 2.0)]
    np.testing.assert_allclose(got[[0, 3, 5]], ref, rtol=1e-10)


def test_lambda_q_fundamental_divergent_head():
    # phi(0+) > 0 makes the integral of phi^q ds/s diverge at 0
    f = _LambdaQFundamental(_MaxPhi([FundamentalFn.power(0.0, 0.1),
                                     FundamentalFn.power_log(0.5, 1.0)]), 2.0)
    got = f(np.array([0.0, 1e-3, 0.5]))
    assert got[0] == 0.0 and np.all(np.isinf(got[1:]))


def test_lambda_q_fundamental_keeps_closed_forms_between_far_points():
    # phi^2 = s below the cap: int_0^1 s ds/s = 1 in closed form, however
    # far apart the points lie
    f = _LambdaQFundamental(FundamentalFn.power(0.5, 1.0, cap=4.0), 2.0)
    assert f(np.array([1e-300, 1.0]))[1] == 1.0


def test_lambda_q_power_log_density_report_finishes():
    # one quadrature from 0 per point made this report run for minutes
    rep = density_criteria_report(NormSpec.lambda_q(FundamentalFn.power_log(0.5, 1), 2), 1)
    assert set(rep.to_dict()["conditions"]) >= {"i", "ix"}


# -- dilations and the Boyd bounds ------------------------------------------------

# the three sup-M_p families: (constructor from phi and p, window of the supremum)
ROW_FAMILIES = {
    "marcinkiewicz": (lambda phi, p: NormSpec.marcinkiewicz(phi), None),
    "marcinkiewicz_p": (NormSpec.marcinkiewicz_p, None),
    "marcinkiewicz_p_loc": (NormSpec.marcinkiewicz_p_loc, 1.0),
}
ROW_SHAPES = {
    "power(0.5)": FundamentalFn.power(0.5),
    "power(0)": FundamentalFn.power(0.0),
    "power(0.5,2,cap 3)": FundamentalFn.power(0.5, 2.0, 3.0),
    "powerlog(0.4,1)": FundamentalFn.power_log(0.4, 1.0),
    "powerlog(0.6,-0.5)": FundamentalFn.power_log(0.6, -0.5),
    "powerlog(0.5,2,cap 0.1)": FundamentalFn.power_log(0.5, 2.0, cap=0.1),
}
_S_GRIDS = st.lists(st.floats(1.0, 5000.0, exclude_min=True), min_size=1, max_size=8)


@st.composite
def row_gridfns(draw):
    """Decreasing GridFns of 1 to 60 cells: inf first cells, zeros, tails."""
    n = draw(st.integers(1, 60))
    widths = draw(st.lists(st.floats(1e-4, 50.0), min_size=n, max_size=n))
    vals = sorted(draw(st.lists(_MAGNITUDES | st.just(0.0), min_size=n, max_size=n)),
                  reverse=True)
    if draw(st.booleans()):
        vals[0] = INF
    last = vals[-1]
    tail = 0.0
    if draw(st.booleans()) and last > 0:
        tail = min(last, draw(_MAGNITUDES)) if math.isfinite(last) else draw(_MAGNITUDES)
    if draw(st.booleans()):
        vals = np.array(vals[::-1])[::-1]  # a strided view, as np.sort(...)[::-1] gives
    return GridFn(np.concatenate(([0.0], np.cumsum(widths))), vals, tail)


@settings(max_examples=150, deadline=None)
@given(f=row_gridfns(), family=st.sampled_from(sorted(ROW_FAMILIES)),
       shape=st.sampled_from(sorted(ROW_SHAPES)), p=st.sampled_from([1.0, 1.05, 2.0, 3.0]),
       s_grid=_S_GRIDS)
# the supremum sits at the cap, a kink of phi, on every dilate
@example(f=GridFn([0.0, 1.0], [1.0]), family="marcinkiewicz_p", shape="power(0.5,2,cap 3)",
         p=3.0, s_grid=[1.5, 2.0])
# strided values: pow on them rounds one cell a last ulp apart
@example(f=GridFn(np.concatenate(([0.0], np.cumsum([0.6, 2.3, 0.3]))),
                  np.array([1.4, 4.4, 6.6])[::-1]),
         family="marcinkiewicz_p", shape="power(0.5,2,cap 3)", p=3.0, s_grid=[2.0])
def test_rows_match_norm_of_each_dilation(f, family, shape, p, s_grid):
    # the norm of f and of each dilate E_{1/s} f is the per-point loop's, bit for bit
    make, window = ROW_FAMILIES[family]
    spec = make(ROW_SHAPES[shape], p)
    p_used = 1.0 if family == "marcinkiewicz" else p
    assert same_bits(norm(f, spec), loop_sup_mp_phi(f, spec.phi, p_used, window))
    for s in s_grid:
        dilate = dilation(f, 1.0 / s)
        assert same_bits(norm(dilate, spec), loop_sup_mp_phi(dilate, spec.phi, p_used, window))


@pytest.mark.parametrize("spec", [
    NormSpec.lambda_phi(FundamentalFn.power_log(0.5, 1.0)),
    NormSpec.lambda_q(FundamentalFn.power_log(0.4, -1.0), 2.0),
    NormSpec.weak_marcinkiewicz(FundamentalFn.power_log(0.5, 1.0)),
    NormSpec.intersection_max(NormSpec.lp(2.0), NormSpec.lorentz(3.0, 1.0)),
], ids=lambda spec: spec.describe())
def test_one_norm_per_dilate_matches_the_per_dilation_loop(spec):
    # h(s) is read off the fundamental function; the same ratios taken one
    # norm per dilated indicator, at every 8th point of the report's grid and
    # at the best one, must agree with it
    phi = spec.fundamental_phi()
    hi = phi.cap if math.isfinite(phi.cap) else 1e4
    grid = phi.eval_grid(1e-10, max(hi * 4, 1.0), 512)
    for s, h in boyd_upper_lowerbound(spec, [1.5, 7.0, 300.0]).h_samples:
        pts = np.concatenate((grid, phi.kinks(0.0, INF) / s))
        best = pts[np.argmax(np.asarray(phi(s * pts)) / np.asarray(phi(pts)))]
        loop = max(norm(dilation(GridFn([0.0, t], [1.0]), 1.0 / s), spec)
                   / norm(GridFn([0.0, t], [1.0]), spec) for t in [*pts[::8], best])
        assert loop == pytest.approx(h, rel=1e-9)


def test_boyd_sweep_keeps_dilations_away_from_norm(monkeypatch):
    # the Boyd bounds come from the fundamental function alone: no function
    # and no dilate reaches norm or the sup-M_p evaluator
    calls = []

    def counting(name, real):
        def wrapped(*args):
            calls.append(name)
            return real(*args)
        return wrapped

    monkeypatch.setattr(spaces, "norm", counting("norm", spaces.norm))
    monkeypatch.setattr(spaces, "_sup_mp_phi", counting("_sup_mp_phi", spaces._sup_mp_phi))
    rep = indices_report(NormSpec.marcinkiewicz_p(FundamentalFn.power_log(0.5, 1.0), 2.0))
    assert rep.lower_bound_only and calls == []


# shapes where every piece is a power, a constant or affine: there the
# report's k(s) is sup_t phi(st) / phi(t) itself
EXACT_K_SHAPES = {
    "sampled": FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5]),
    "sampled(cap 4)": FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5], cap=4.0),
    "sampled(5 nodes)": FundamentalFn.sampled([0.1, 0.3, 1.0, 5.0, 9.0],
                                              [0.2, 0.4, 0.6, 1.0, 1.1]),
    "power(0.5,2,cap 3)": FundamentalFn.power(0.5, 2.0, 3.0),
    "power(0.3,cap 0.5)": FundamentalFn.power(0.3, 1.0, 0.5),
    "power(0.8,cap 20)": FundamentalFn.power(0.8, 0.5, 20.0),
}
H_EQUALS_K = {
    "lambda_phi": NormSpec.lambda_phi,
    "marcinkiewicz": NormSpec.marcinkiewicz,
    "weak_marcinkiewicz": NormSpec.weak_marcinkiewicz,
    "marcinkiewicz_p": lambda phi: NormSpec.marcinkiewicz_p(phi, 2.0),
    "marcinkiewicz_p_loc": lambda phi: NormSpec.marcinkiewicz_p_loc(phi, 3.0),
}


@settings(max_examples=60, deadline=None)
@given(f=row_gridfns(), family=st.sampled_from(sorted(H_EQUALS_K)),
       shape=st.sampled_from(sorted(EXACT_K_SHAPES)), s=st.floats(1.0, 5000.0, exclude_min=True))
# short supports, where phi(st) / phi(t) tops between the points that the
# old candidate sweep read h(s) off: it read h(8) 1.6 times too low for M_phi
@example(f=GridFn([0.0, 0.05], [1.0]), family="marcinkiewicz", shape="sampled", s=8.0)
@example(f=GridFn([0.0, 0.0455, 0.2122], [5.77, 0.33]), family="lambda_phi",
         shape="sampled", s=8.0)
@example(f=GridFn([0.0, 0.0358], [4.75]), family="lambda_phi", shape="power(0.8,cap 20)",
         s=512.0)
def test_dilation_norms_stay_below_the_reported_h(f, family, shape, s):
    # for Lambda_phi, M_phi and M*_phi the dilation norm h(s) is k_phi(s)
    # exactly, and for M^p, global or local, it is k(s) of the indicator
    # norms F, since the norm is sup_u F(u) M_p f*(u) over the window; so the
    # report's h bounds every decreasing function's dilate
    spec = H_EQUALS_K[family](EXACT_K_SHAPES[shape])
    ((_, h),) = boyd_upper_lowerbound(spec, [s]).h_samples
    base = norm(f, spec)
    if not (0 < base < INF):
        return
    assert norm(dilation(f, 1.0 / s), spec) <= h * base * (1 + 1e-12)
