"""The batched log-axis Gauss quadrature against the one-interval loops.

The loops below integrated one interval, one cell or one segment at a time,
and evaluated phi on the shared m_phi base grid once per s.  They are kept
here as oracles: on elementwise shapes the batched code must match them bit
for bit, compared through ``float.hex``.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rikit.maximal import _m_phi_at, _power_near_zero, criterion_B
from rikit.rearrange import GridFn
from rikit.spaces import (
    _GAUSS_W,
    _GAUSS_X,
    INF,
    FundamentalFn,
    NormSpec,
    OrliczN,
    PowerPhi,
    _gauss_log_rows,
    _MaxPhi,
    _norm_lambda_q,
    _phi_weight_rows,
    geometric_grid,
    norm,
    psi_majorant_phi,
)

# -- loop references --------------------------------------------------------------


def loop_gauss_log(f_of_t, a, b, panels=4):
    """One interval, one panel at a time."""
    la, lb = math.log(a), math.log(b)
    cuts = np.linspace(la, lb, panels + 1)
    total = 0.0
    for c0, c1 in zip(cuts[:-1], cuts[1:]):
        mid = 0.5 * (c0 + c1)
        half = 0.5 * (c1 - c0)
        xs = np.exp(mid + half * _GAUSS_X)
        total += half * float(np.sum(_GAUSS_W * np.asarray(f_of_t(xs))))
    return total


def loop_dyadic_integral(g, b):
    """Dyadic refinement toward 0 on loop_gauss_log."""
    total = 0.0
    hi = b
    doublings = 0
    flat = 0
    prev_total = 0.0
    prev_piece = None
    for level in range(200):
        lo = hi / 2.0
        piece = loop_gauss_log(lambda t: np.asarray(g(t)) * t, lo, hi, panels=1)
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


def loop_phi_weight_integral(phi, a, b, q):
    """int phi^q dt/t over one interval, piece by piece."""
    if b <= a:
        return 0.0
    total = 0.0
    for (x0, x1, kind, params) in phi.pieces(a, b):
        if kind == "power":
            c, alpha = params
            if alpha > 0:
                e = q * alpha
                lo_term = x0 ** e if x0 > 0 else 0.0
                with np.errstate(over="ignore"):
                    total += c ** q * (x1 ** e - lo_term) / e
            else:
                if x0 <= 0:
                    return INF if c > 0 else total
                total += c ** q * math.log(x1 / x0)
        elif kind == "affine":
            c, m = params
            if c == 0.0:
                if m == 0.0:
                    continue
                e = q
                lo_term = x0 ** e if x0 > 0 else 0.0
                total += m ** q * (x1 ** e - lo_term) / e
            else:
                if x0 <= 0:
                    return INF
                total += loop_gauss_log(lambda t: (c + m * t) ** q, x0, x1)
        else:
            fn = params
            if x0 <= 0:
                val = loop_dyadic_integral(lambda t: np.asarray(fn(t)) ** q / t, x1)
                if not math.isfinite(val):
                    return INF
                total += val
            else:
                total += loop_gauss_log(lambda t: np.asarray(fn(t)) ** q, x0, x1)
    return total


def loop_norm_lambda_q(ustar, phi, q):
    """One weight per cell, in cell order, stopping at the first inf."""
    if ustar.tail > 0:
        return INF
    e = ustar.edges
    v = ustar.values
    total = 0.0
    for i in range(len(v)):
        if v[i] == 0.0:
            continue
        w = loop_phi_weight_integral(phi, e[i], e[i + 1], q)
        if not math.isfinite(w):
            return INF
        if not math.isfinite(v[i]):
            if w > 0:
                return INF
            continue
        total += v[i] ** q * w
    return total ** (1.0 / q)


def loop_inv_power_piece(a, b, kind, params, p):
    if kind == "power":
        c, alpha = params
        if alpha == 0.0:
            return INF if c <= 0 else c ** (-p) * (b - a)
        e = 1.0 - alpha * p
        if a <= 0 and e <= 0:
            return INF
        if e == 0:
            return c ** (-p) * math.log(b / a)
        lo = a ** e if a > 0 else 0.0
        return c ** (-p) * (b ** e - lo) / e
    if kind == "affine":
        c, m = params
        if m == 0.0:
            return INF if c <= 0 else c ** (-p) * (b - a)
        if c == 0.0:
            e = 1.0 - p
            if a <= 0 and e <= 0:
                return INF
            if e == 0:
                return m ** (-p) * math.log(b / a)
            lo = a ** e if a > 0 else 0.0
            return m ** (-p) * (b ** e - lo) / e
        if p == 1.0:
            return (math.log(c + m * b) - math.log(c + m * a)) / m
        return ((c + m * b) ** (1 - p) - (c + m * a) ** (1 - p)) / (m * (1 - p))
    fn = params
    if a <= 0:
        return loop_dyadic_integral(lambda s: np.asarray(fn(s)) ** (-p), b)
    return loop_gauss_log(lambda s: np.asarray(fn(s)) ** (-p) * s, a, b)


def loop_criterion_B(phi, p, delta=1.0):
    """criterion_B with its inner integral swept one segment at a time."""
    pe = _power_near_zero(phi)
    if isinstance(phi, PowerPhi) and (math.isinf(phi.cap) or phi.cap >= delta):
        if phi.alpha == 0.0:
            return 1.0
        if phi.alpha * p >= 1.0:
            return INF
        return 1.0 / (1.0 - phi.alpha * p)
    if pe is not None and pe[1] * p >= 1.0:
        return INF
    lo = delta * 1e-18
    ts = np.unique(np.concatenate((
        geometric_grid(lo, delta, 160), phi.kinks(lo, delta), [delta])))
    ts = ts[(ts > 0) & (ts <= delta)]
    inners = np.empty(len(ts))
    total, a = 0.0, 0.0
    for j, b in enumerate(ts.tolist()):
        seg = 0.0
        for (x0, x1, kind, params) in phi.pieces(a, b):
            seg += loop_inv_power_piece(x0, x1, kind, params, p)
            if not math.isfinite(seg):
                seg = INF
                break
        total += seg
        if not math.isfinite(total):
            return INF
        inners[j], a = total, b
    vals = np.asarray(phi(ts), dtype=float) ** p * inners / ts
    best = float(np.max(vals))
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


def loop_m_phi_at(phi, ss):
    """phi evaluated on every s's whole grid, the shared base included."""
    kinks = phi.kinks(1e-12, 1.0)
    base = np.unique(np.concatenate((geometric_grid(1e-12, 1.0, 192), kinks, [1.0])))
    base = base[(base > 0) & (base <= 1.0)]
    ss = ss[:, None]
    ts = np.concatenate((np.broadcast_to(base, (len(ss), len(base))), kinks / ss), axis=1)
    num = np.asarray(phi(ts.ravel()), dtype=float).reshape(ts.shape)
    den = np.asarray(phi((ss * ts).ravel()), dtype=float).reshape(ts.shape)
    ratios = num / np.maximum(den, 1e-300)
    return np.max(np.where((ts > 0) & (ts <= 1.0), ratios, -INF), axis=1)


def hexes(values):
    return [float(x).hex() for x in np.atleast_1d(values)]


# -- shapes -----------------------------------------------------------------------

caps = st.one_of(st.just(math.inf), st.floats(0.05, 20.0))


@st.composite
def sampled_shapes(draw):
    n = draw(st.integers(1, 5))
    ts = np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))
    # positive values: phi^{-p} of a zero shape overflows on the old loops too
    vals = np.cumsum(draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n)))
    return FundamentalFn.sampled(ts, vals)


@st.composite
def orlicz_shapes(draw):
    n = draw(st.integers(1, 4))
    xs = np.cumsum(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)))
    slopes = np.cumsum(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)))
    ys = np.cumsum(slopes * np.diff(np.concatenate(([0.0], xs))))
    return FundamentalFn.orlicz_inverse(OrliczN(xs, ys), cap=draw(caps))


powers = st.builds(FundamentalFn.power, st.floats(0.0, 1.0), st.floats(0.2, 5.0), caps)
power_logs = st.builds(FundamentalFn.power_log, st.floats(0.1, 0.9), st.floats(-2.0, 2.0),
                       st.floats(0.2, 5.0), caps)
# a 48-point base grid keeps the psi-majorant's kinks few
psi_majorants = st.builds(
    lambda phi, p: psi_majorant_phi(phi, p, np.geomspace(1e-8, 1.0, 48)),
    st.one_of(power_logs, sampled_shapes()), st.floats(1.0, 3.0))
# two quadrature shapes in one: the batch calls each component on its own rows
maxes = st.builds(lambda a, b: _MaxPhi([a, b]), power_logs, orlicz_shapes())
SHAPES = st.one_of(powers, power_logs, sampled_shapes(), orlicz_shapes(), psi_majorants,
                   maxes)


@st.composite
def decreasing_gridfns(draw):
    n = draw(st.integers(0, 12))
    edges = np.concatenate(([0.0], np.cumsum(
        draw(st.lists(st.floats(1e-3, 3.0), min_size=n, max_size=n)))))
    vals = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
                         min_size=n, max_size=n))
    vals = sorted(vals, reverse=True)
    if n and draw(st.booleans()):
        vals[0] = INF
    return GridFn(edges, vals)


# -- the batched paths against the loops ------------------------------------------


@settings(max_examples=60, deadline=None)
@given(u=decreasing_gridfns(), phi=SHAPES, q=st.floats(1.0, 4.0))
@example(u=GridFn([0.0, 0.01, 0.02, 0.5], [3.0, 1.0, 0.5]),
         phi=FundamentalFn.power(5e-324, 1.0, math.inf), q=1.0)
@example(u=GridFn([0.0, 0.5, 1.0, 2.0], [INF, 0.0, 0.0]),
         phi=FundamentalFn.power_log(0.5, 1.0), q=2.0)
@example(u=GridFn([0.0], []), phi=FundamentalFn.power(0.5), q=2.0)
def test_norm_lambda_q_matches_the_cell_loop(u, phi, q):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _norm_lambda_q(u, phi, q)
    assert hexes(got) == hexes(loop_norm_lambda_q(u, phi, q))


@settings(max_examples=60, deadline=None)
@given(phi=SHAPES, q=st.floats(1.0, 4.0),
       ts=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 30.0)), min_size=1, max_size=8))
def test_weight_rows_match_one_interval_at_a_time(phi, q, ts):
    # the head cell from 0, then cells between sorted points, empty ones too
    edges = np.concatenate(([0.0], np.sort(ts)))
    got = _phi_weight_rows(phi, edges[:-1], edges[1:], q)
    want = [loop_phi_weight_integral(phi, a, b, q) for a, b in zip(edges[:-1], edges[1:])]
    assert hexes(got) == hexes(want)


def test_a_tiny_power_exponent_overflows_to_inf_quietly():
    u = GridFn([0.0, 0.01, 0.02, 0.5], [3.0, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(u, NormSpec.lambda_q(FundamentalFn.power(5e-324), 1)) == INF


@settings(max_examples=40, deadline=None)
@given(phi=SHAPES, p=st.floats(1.0, 4.0), delta=st.sampled_from([1.0, 0.3, 5.0]))
@example(phi=psi_majorant_phi(FundamentalFn.sampled([2.0], [1.0]), 2.0,
                              np.geomspace(1e-8, 1.0, 48)), p=1.0, delta=5.0)
def test_criterion_B_matches_the_segment_loop(phi, p, delta):
    assert hexes(criterion_B(phi, p, delta)) == hexes(loop_criterion_B(phi, p, delta))


def test_criterion_B_takes_the_log_where_the_power_law_exponent_is_zero():
    # phi = t^0.3 below 1 and t^0.5 above: int_1^5 phi^{-2} = ln 5
    phi = _MaxPhi([FundamentalFn.power(0.3), FundamentalFn.power(0.5)])
    assert criterion_B(phi, 2.0, 5.0) == pytest.approx(2.5 + math.log(5), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(phi=SHAPES, ss=st.lists(st.floats(1e-9, 0.999), min_size=1, max_size=6))
def test_m_phi_at_matches_a_grid_per_s(phi, ss):
    ss = np.asarray(ss)
    assert hexes(_m_phi_at(phi, ss)) == hexes(loop_m_phi_at(phi, ss))


@settings(max_examples=40, deadline=None)
@given(ends=st.lists(st.tuples(st.floats(1e-6, 10.0), st.floats(1.0, 1e3)),
                     min_size=1, max_size=5),
       panels=st.integers(1, 5), alpha=st.floats(-2.0, 2.0))
def test_kernel_rows_match_one_interval_at_a_time(ends, panels, alpha):
    a = [x for x, _ in ends]
    b = [x * r for x, r in ends]
    got = _gauss_log_rows(lambda t, rows: t ** alpha, a, b, panels)
    want = [loop_gauss_log(lambda t: t ** alpha, x, y, panels) for x, y in zip(a, b)]
    assert hexes(got) == hexes(want)


def test_kernel_blocks_do_not_change_a_row(monkeypatch):
    # a batch longer than one block gives each row the bits it gets alone
    import rikit.spaces as spaces
    monkeypatch.setattr(spaces, "_GAUSS_BLOCK", 3)
    a = np.geomspace(1e-4, 1.0, 10)
    calls = []

    def f(t, rows):
        calls.append(rows)
        return np.sqrt(t) * np.log1p(t)

    got = _gauss_log_rows(f, a, 2.0 * a)
    assert [(r.start, r.stop) for r in calls] == [(0, 3), (3, 6), (6, 9), (9, 12)]
    want = [loop_gauss_log(lambda t: np.sqrt(t) * np.log1p(t), x, 2.0 * x) for x in a]
    assert hexes(got) == hexes(want)


def test_kernel_logs_match_the_c_library():
    # numpy's vector log rounds a last ulp apart from math.log for a few
    # endpoints in a thousand near 1; the loop took math.log
    a = np.linspace(0.5, 2.0, 4001)
    got = _gauss_log_rows(lambda t, rows: np.sqrt(t), a, 1.5 * a)
    want = [loop_gauss_log(np.sqrt, x, 1.5 * x) for x in a]
    assert hexes(got) == hexes(want)
