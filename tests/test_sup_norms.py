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
from hypothesis import given, settings
from hypothesis import strategies as st

from rikit.maximal import density_criteria_report
from rikit.rearrange import GridFn
from rikit.spaces import (
    DEFAULT_SUP_POINTS,
    INF,
    FundamentalFn,
    NormSpec,
    _LambdaQFundamental,
    _MaxPhi,
    _mp_tail_candidate,
    _mp_values,
    _phi_weight_integral,
    _sup_mp_phi,
    _sup_star_phi,
    geometric_grid,
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
    tail_cand = _mp_tail_candidate(ustar, phi, p)
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
    assert same_bits(_sup_mp_phi(u, phi, p, window), loop_sup_mp_phi(u, phi, p, window))


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
