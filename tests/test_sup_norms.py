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

import rikit.maximal as maximal
import rikit.spaces as spaces
from rikit.maximal import boyd_upper_lowerbound, density_criteria_report, dilation, indices_report
from rikit.rearrange import GridFn
from rikit.spaces import (
    _FAMILIES,
    DEFAULT_SUP_POINTS,
    INF,
    FundamentalFn,
    NormSpec,
    _LambdaQFundamental,
    _MaxPhi,
    _mp_tail_rows,
    _mp_values,
    _phi_weight_integral,
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
        kind == "generic"
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
    tail_cand = _mp_tail_rows(ustar, phi, p, [1.0])[0]
    if not math.isfinite(tail_cand):
        return INF
    return max(best, tail_cand)


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
    assert same_bits(_sup_mp_phi(u, phi, p, window, [1.0])[0],
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
            assert same_bits(_sup_mp_phi(u, phi, 2.0, window, [1.0])[0],
                             loop_sup_mp_phi(u, phi, 2.0, window))


def test_sup_star_phi_closed_values():
    u = GridFn([0.0, 0.5, 2.0], [INF, 1.0])
    assert _sup_star_phi(u, FundamentalFn.power(0.5)) == INF
    # a positive tail needs a bounded shape
    tailed = GridFn([0.0, 1.0], [1.0], 0.5)
    assert _sup_star_phi(tailed, FundamentalFn.power(0.5)) == INF
    assert _sup_star_phi(tailed, FundamentalFn.power(0.5, cap=16.0)) == 2.0


# -- the Lambda^q fundamental -----------------------------------------------------


@pytest.mark.parametrize("alpha,beta", [(0.5, 1.0), (0.3, -1.0), (0.7, 0.5), (0.5, -0.5)])
@pytest.mark.parametrize("q", [1.0, 2.0, 3.5])
def test_lambda_q_fundamental_sweep_matches_quadrature(alpha, beta, q):
    phi = FundamentalFn.power_log(alpha, beta)
    ts = geometric_grid(1e-12, 10.0, 120)
    got = _LambdaQFundamental(phi, q)(ts)
    ref = np.array([_phi_weight_integral(phi, 0.0, t, q) for t in ts]) ** (1.0 / q)
    np.testing.assert_allclose(got, ref, rtol=1e-10, atol=0.0)


def test_lambda_q_fundamental_scalar_and_edge_points():
    phi = FundamentalFn.power_log(0.5, 1.0)
    f = _LambdaQFundamental(phi, 2.0)
    value = f(0.25)
    assert type(value) is float
    assert value == _phi_weight_integral(phi, 0.0, 0.25, 2.0) ** 0.5
    # unsorted, repeated and nonpositive points
    ts = np.array([0.3, -1.0, 0.0, 1e-5, 0.3, 2.0])
    got = f(ts)
    assert got[1] == got[2] == 0.0
    assert got[0] == got[4]
    ref = [_phi_weight_integral(phi, 0.0, t, 2.0) ** 0.5 for t in (0.3, 1e-5, 2.0)]
    np.testing.assert_allclose(got[[0, 3, 5]], ref, rtol=1e-10)


def test_lambda_q_fundamental_divergent_head():
    # phi(0+) > 0 makes the integral of phi^q ds/s diverge at 0
    f = _LambdaQFundamental(_MaxPhi([FundamentalFn.power(0.0, 0.1),
                                     FundamentalFn.power_log(0.5, 1.0)]), 2.0)
    got = f(np.array([0.0, 1e-3, 0.5]))
    assert got[0] == 0.0 and np.all(np.isinf(got[1:]))


def test_lambda_q_power_log_density_report_finishes():
    # one quadrature from 0 per point made this report run for minutes
    rep = density_criteria_report(NormSpec.lambda_q(FundamentalFn.power_log(0.5, 1), 2), 1)
    assert set(rep.to_dict()["conditions"]) >= {"i", "ix"}


# -- every dilation in one pass -----------------------------------------------------

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


def row_spec(family, shape, p):
    make, window = ROW_FAMILIES[family]
    spec = make(ROW_SHAPES[shape], p)
    return spec, (1.0 if family == "marcinkiewicz" else p), window


@settings(max_examples=150, deadline=None)
@given(f=row_gridfns(), family=st.sampled_from(sorted(ROW_FAMILIES)),
       shape=st.sampled_from(sorted(ROW_SHAPES)), p=st.sampled_from([1.0, 1.05, 2.0, 3.0]),
       s_grid=_S_GRIDS)
# the supremum sits at the cap, a kink of phi, on every row
@example(f=GridFn([0.0, 1.0], [1.0]), family="marcinkiewicz_p", shape="power(0.5,2,cap 3)",
         p=3.0, s_grid=[1.5, 2.0])
# strided values: pow on them rounds one cell a last ulp apart
@example(f=GridFn(np.concatenate(([0.0], np.cumsum([0.6, 2.3, 0.3]))),
                  np.array([1.4, 4.4, 6.6])[::-1]),
         family="marcinkiewicz_p", shape="power(0.5,2,cap 3)", p=3.0, s_grid=[2.0])
def test_rows_match_norm_of_each_dilation(f, family, shape, p, s_grid):
    spec, p_used, window = row_spec(family, shape, p)
    c = [1.0] + [float(1.0 / s) for s in s_grid]
    rows = _FAMILIES[family].rows(f, spec, c)
    assert len(rows) == len(c)
    assert same_bits(rows[0], norm(f, spec))
    for s, got in zip(s_grid, rows[1:]):
        dilate = dilation(f, 1.0 / s)
        assert same_bits(got, norm(dilate, spec))
        assert same_bits(got, loop_sup_mp_phi(dilate, spec.phi, p_used, window))


def loop_boyd(spec, candidates, s_grid):
    """The per-dilation loop that the row evaluator replaced in the Boyd sweep."""
    usable = []
    for f in candidates:
        if not f.is_decreasing():
            raise ValueError("Boyd candidates must be decreasing GridFns")
        base = norm(f, spec)
        if base > 0 and math.isfinite(base):
            usable.append((f, base))
    if not usable:
        raise ValueError("no candidate with nonzero finite norm")
    hs = []
    for s in s_grid:
        best = 0.0
        for f, base in usable:
            val = norm(dilation(f, 1.0 / s), spec)
            if math.isfinite(val):
                best = max(best, val / base)
        hs.append((float(s), best))
    return hs, max(math.log(h) / math.log(s) for (s, h) in hs if h > 0)


def report_or_error(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=100, deadline=None)
@given(cands=st.lists(row_gridfns(), min_size=1, max_size=3),
       family=st.sampled_from(sorted(ROW_FAMILIES)),
       shape=st.sampled_from(sorted(ROW_SHAPES)), p=st.sampled_from([1.0, 1.05, 2.0, 3.0]),
       s_grid=_S_GRIDS)
# the default candidates: different ones give the largest ratio at different s
@example(cands=list(maximal._BOYD_CANDIDATES), family="marcinkiewicz_p_loc",
         shape="powerlog(0.4,1)", p=2.0, s_grid=[2.0, 64.0, 4096.0])
def test_boyd_sweep_matches_per_dilation_loop(cands, family, shape, p, s_grid):
    spec = row_spec(family, shape, p)[0]
    if spec.boyd_alpha_exact() is not None:
        return  # a closed form: no candidate is evaluated
    want = report_or_error(loop_boyd, spec, cands, s_grid)
    rep = report_or_error(boyd_upper_lowerbound, spec, cands, s_grid)
    if isinstance(want, tuple) and want[0] == "ValueError":
        assert rep == want
        return
    hs, alpha = want
    assert [(s, h.hex()) for s, h in rep.h_samples] == [(s, h.hex()) for s, h in hs]
    assert rep.alpha_lower.hex() == alpha.hex()


def test_boyd_sweep_keeps_dilations_away_from_norm(monkeypatch):
    # one row evaluation per default candidate, and no dilate reaches norm: the
    # sweep once made 7 x (1 + 12) norm calls per report
    seen, row_calls = [], []
    real_norm, real_rows = spaces.norm, spaces._sup_mp_phi

    def counting_norm(u, spec):
        seen.append(u)
        return real_norm(u, spec)

    def counting_rows(ustar, phi, p, window_hi, c):
        row_calls.append(len(c))
        return real_rows(ustar, phi, p, window_hi, c)

    for module in (spaces, maximal):
        monkeypatch.setattr(module, "norm", counting_norm)
    monkeypatch.setattr(spaces, "_sup_mp_phi", counting_rows)
    indices_report(NormSpec.marcinkiewicz_p(FundamentalFn.power_log(0.5, 1.0), 2.0))
    cands = maximal._BOYD_CANDIDATES
    dilates = [f.edges / float(1.0 / s) for f in cands for s in maximal._S_GRID]
    assert not any(isinstance(u, GridFn) and len(u.edges) == len(d)
                   and np.array_equal(u.edges, d) for u in seen for d in dilates)
    assert 0 < len(row_calls) <= len(cands)
    assert set(row_calls) == {1 + len(maximal._S_GRID)}
