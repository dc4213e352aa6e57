"""The batched log-axis Gauss quadrature against the one-interval loops.

The loops below integrated one interval, cell, segment or dyadic level at
a time, and evaluated phi on the shared m_phi base grid once per s.  They
are kept here as oracles: on elementwise shapes the batched code must match
them bit for bit, compared through ``float.hex``.  Constant pieces and
power-log heads take their closed forms here too, one piece at a time.
"""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import rikit.spaces as spaces
from rikit.maximal import _m_phi_at, _m_phi_values, criterion_B, m_phi_norm
from rikit.rearrange import GridFn
from rikit.spaces import (
    _DYADIC_BLOCK,
    _GAUSS_W,
    _GAUSS_X,
    INF,
    FundamentalFn,
    NormSpec,
    OrliczN,
    _dyadic_integral,
    _gauss_log_rows,
    _log_power_integral,
    _MaxPhi,
    _norm_lambda_q,
    _power_integral_rows,
    _power_on,
    _regular_head,
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
    prev_ratio = None
    tail_est = 0.0
    for level in range(200):
        lo = hi / 2.0
        if lo == 0.0:
            break
        piece = loop_gauss_log(lambda t: np.asarray(g(t)) * t, lo, hi, panels=1)
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
            # a ratio that falls more than 0.1% below the one before is no flat
            if ratio >= 0.999 and not (prev_ratio is not None and ratio < 0.999 * prev_ratio):
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
        hi = lo
    # the levels ran out: the geometric tail of the last ratio in (0, 1)
    return total + tail_est


def loop_power_log_piece(x0, x1, params, r, s):
    """The closed form of int phi^r t^s dt/t over one power-log piece, or
    None where it has none."""
    c, alpha, beta = params
    e, k = s + r * alpha, r * beta
    if not (e > 0 and k > -1):
        return None
    tails = [_log_power_integral(np.array([x]), e, k)[0] if x > 0 else 0.0 for x in (x0, x1)]
    return c ** r * (tails[1] - tails[0])


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
                if m == 0.0:
                    total += c ** q * math.log(x1 / x0)
                else:  # the quadrature runs the shape itself, as on a generic piece
                    total += loop_gauss_log(lambda t: np.asarray(phi(t)) ** q, x0, x1)
        elif kind == "power_log" and loop_power_log_piece(x0, x1, params, q, 0) is not None:
            total += loop_power_log_piece(x0, x1, params, q, 0)
        else:
            fn = phi
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
        with np.errstate(over="ignore"):
            total += v[i] ** q * w
    return total ** (1.0 / q)


def loop_inv_power_piece(phi, a, b, kind, params, p):
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
    if kind == "power_log" and loop_power_log_piece(a, b, params, -p, 1) is not None:
        return loop_power_log_piece(a, b, params, -p, 1)
    fn = phi
    if a <= 0:
        return loop_dyadic_integral(lambda s: np.asarray(fn(s)) ** (-p), b)
    return loop_gauss_log(lambda s: np.asarray(fn(s)) ** (-p) * s, a, b)


def loop_criterion_B(phi, p, delta=1.0):
    """criterion_B with its inner integral swept one segment at a time."""
    whole = _power_on(phi, 0.0, delta)
    if whole is not None:
        alpha = whole[1]
        if alpha == 0.0:
            return 1.0
        if alpha >= 1.0 / p:
            return INF
        return 1.0 / (1.0 - alpha * p)
    head = _regular_head(phi, 0.0)  # a power or a power-log head
    if head is not None and head[1] >= 1.0 / p:
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
            seg += loop_inv_power_piece(phi, x0, x1, kind, params, p)
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
    # Karamata: the ratio tends to 1 / (1 - alpha p) at 0 on a regular head
    return best if head is None else max(best, 1.0 / (1.0 - head[1] * p))


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
# over an Orlicz shape with kinks past 1 the batch calls psi, which calls phi
psi_majorants = st.builds(psi_majorant_phi, st.one_of(power_logs, sampled_shapes(),
                                                      orlicz_shapes()), st.floats(1.0, 3.0))
# two quadrature shapes in one, generic wherever either component is
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
# a finite weight near the float maximum, times v^q = 2: the sum overflows to inf
@example(u=GridFn([0.0, 1.0], [2.0]),
         phi=FundamentalFn.power(2.2250738585072014e-308, 2.0, math.inf), q=1.0)
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
    got = _power_integral_rows(phi, edges[:-1], edges[1:], q, 0)
    want = [loop_phi_weight_integral(phi, a, b, q) for a, b in zip(edges[:-1], edges[1:])]
    assert hexes(got) == hexes(want)


def test_a_tiny_power_exponent_overflows_to_inf_quietly():
    u = GridFn([0.0, 0.01, 0.02, 0.5], [3.0, 1.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert norm(u, NormSpec.lambda_q(FundamentalFn.power(5e-324), 1)) == INF


@settings(max_examples=40, deadline=None)
@given(phi=SHAPES, p=st.floats(1.0, 4.0), delta=st.sampled_from([1.0, 0.3, 5.0]))
@example(phi=psi_majorant_phi(FundamentalFn.sampled([2.0], [1.0]), 2.0), p=1.0, delta=5.0)
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
    got = _gauss_log_rows(lambda t: t ** alpha, a, b, panels)
    want = [loop_gauss_log(lambda t: t ** alpha, x, y, panels) for x, y in zip(a, b)]
    assert hexes(got) == hexes(want)


def test_kernel_blocks_do_not_change_a_row(monkeypatch):
    # a batch longer than one block gives each row the bits it gets alone
    monkeypatch.setattr(spaces, "_GAUSS_BLOCK", 3)
    a = np.geomspace(1e-4, 1.0, 10)
    calls = []

    def f(t):
        calls.append(t.size)
        return np.sqrt(t) * np.log1p(t)

    got = _gauss_log_rows(f, a, 2.0 * a)
    # 4 panels of 24 nodes per interval, 3 intervals per call
    assert calls == [3 * 96, 3 * 96, 3 * 96, 96]
    want = [loop_gauss_log(lambda t: np.sqrt(t) * np.log1p(t), x, 2.0 * x) for x in a]
    assert hexes(got) == hexes(want)


def test_kernel_logs_match_the_c_library():
    # numpy's vector log rounds a last ulp apart from math.log for a few
    # endpoints in a thousand near 1; the loop took math.log
    a = np.linspace(0.5, 2.0, 4001)
    got = _gauss_log_rows(lambda t: np.sqrt(t), a, 1.5 * a)
    want = [loop_gauss_log(np.sqrt, x, 1.5 * x) for x in a]
    assert hexes(got) == hexes(want)


# -- the dyadic refinement, a block of levels per kernel call ----------------------


def power_log_integrand(e, beta, b):
    """t^(e - 1) log(2 b / t)^beta on (0, b): a power law at beta = 0."""
    return lambda t: t ** (e - 1.0) * np.log(2.0 * b / t) ** beta


def oracle_levels(g, b):
    """The loop's value and the number of levels it integrated."""
    calls = []

    def counted(t):
        calls.append(t)
        return g(t)

    return loop_dyadic_integral(counted, b), len(calls)


@settings(max_examples=60, deadline=None)
@given(e=st.floats(0.3, 12.0), beta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
       b=st.floats(1e-3, 10.0))
# the tail rule stops after 7, 8 and 9 levels: the ends of the first block
@example(e=6.5, beta=0.0, b=1.0)
@example(e=5.5, beta=0.0, b=1.0)
@example(e=5.0, beta=0.0, b=1.0)
def test_dyadic_blocks_match_the_level_loop(e, beta, b):
    g = power_log_integrand(e, beta, b)
    assert hexes(_dyadic_integral(g, b)) == hexes(loop_dyadic_integral(g, b))


def test_dyadic_stops_fall_at_every_offset_in_a_block():
    stops = set()
    for e in np.geomspace(1.0, 40.0, 48):
        for beta in (0.0, 1.5):
            g = power_log_integrand(e, beta, 1.0)
            want, levels = oracle_levels(g, 1.0)
            assert hexes(_dyadic_integral(g, 1.0)) == hexes(want), (e, beta)
            stops.add(levels)
    assert {n % _DYADIC_BLOCK for n in stops} == set(range(_DYADIC_BLOCK))
    assert {7, 8, 9} <= stops


@pytest.mark.parametrize("g", [lambda t: t ** -3.0, lambda t: 1.0 / t],
                         ids=["doubling", "flat"])
def test_dyadic_divergence_rules_match_the_level_loop(g):
    want, levels = oracle_levels(g, 1.0)
    assert want == INF and levels < _DYADIC_BLOCK
    assert hexes(_dyadic_integral(g, 1.0)) == hexes(want)


@pytest.mark.parametrize("b", [5e-324, 1e-322, 3e-320, 2.5e-310])
def test_dyadic_subnormal_end_stops_where_the_lower_end_underflows(b):
    # t^-1/2 decays too slowly for the tail rule: the levels run out at 0
    g = power_log_integrand(0.5, 0.0, b)
    want, levels = oracle_levels(g, b)
    assert levels < 200 and b / 2.0 ** levels <= 5e-324
    assert hexes(_dyadic_integral(g, b)) == hexes(want)
    # the geometric tail of the last ratio stands in for the levels below;
    # subnormal nodes round, so the ratios stray from 2^-1/2 near 1e-322
    if levels:
        assert want == pytest.approx(2.0 * math.sqrt(b), rel=0.15)


def test_dyadic_refinement_stops_at_200_levels():
    # pieces decaying by 2^-0.01 a level: no rule stops them.  The 200
    # levels sum to 75 of int_0^1 t^-0.99 dt = 100; the geometric tail of
    # their ratio adds the rest
    g = power_log_integrand(0.01, 0.0, 1.0)
    want, levels = oracle_levels(g, 1.0)
    assert levels == 200
    assert want == pytest.approx(100.0, rel=1e-12)
    nodes = []
    got = _dyadic_integral(lambda t: nodes.append(t) or g(t), 1.0)
    assert hexes(got) == hexes(want)
    assert len(nodes) == math.ceil(200 / _DYADIC_BLOCK)
    assert 2.0 ** -200 < min(x.min() for x in nodes) < 2.0 ** -199


def test_dyadic_reads_a_rising_head_as_no_divergence():
    # m_phi^2 for max(t^0.499, 2 t^0.8) grows by level ratios 1.516, 1.516,
    # 1.368 and 1.020 before it decays by 0.99861 a level: the fourth ratio
    # read as flat once returned inf, and a falling ratio above 1 leaves no
    # tail estimate, so it must not end the refinement either.  44.6741456
    # is a 200,001-point log-trapezoid of m_phi^2 from 1e-60 plus the
    # closed-form head 4 eps^0.002 / 0.002 below it
    phi = _MaxPhi([FundamentalFn.power(0.499), FundamentalFn.power(0.8, 2.0)])
    assert m_phi_norm(phi, 2.0) == pytest.approx(44.6741456, rel=1e-6)

    def g(s):
        return _m_phi_at(phi, s) ** 2

    assert hexes(_dyadic_integral(g, 1.0)) == hexes(loop_dyadic_integral(g, 1.0))


def test_m_phi_norm_takes_a_kernel_call_per_block_of_levels(monkeypatch):
    # the refinement of m_phi^1 for power_log(0.5, -1) runs 95 levels
    calls = []
    kernel = spaces._gauss_log_rows

    def counted(f, a, b, panels=4):
        calls.append(len(a))
        return kernel(f, a, b, panels)

    monkeypatch.setattr(spaces, "_gauss_log_rows", counted)
    assert math.isfinite(m_phi_norm(FundamentalFn.power_log(0.5, -1.0), 1.0))
    assert 0 < len(calls) <= math.ceil(95 / _DYADIC_BLOCK)
    assert calls[:-1] == [_DYADIC_BLOCK] * (len(calls) - 1)


# -- power-log heads in closed form -------------------------------------------------

# 50 digits, well past the 1e-12 asked of the closed forms below
mpmath.mp.dps = 50


def mp_head_integral(x, c, eta, k):
    """int_0^x c t^eta |log t|^k dt/t = c eta^-(k+1) Gamma(k+1, -eta log x)
    in mpmath: the upper incomplete gamma function."""
    eta, k = mpmath.mpf(eta), mpmath.mpf(k)
    return mpmath.mpf(c) * eta ** -(k + 1) * mpmath.gammainc(k + 1, -eta * mpmath.log(x))


@st.composite
def power_log_integrands(draw):
    """(phi, r, s) with a closed form for int phi^r t^s dt/t on the head:
    a Lambda^q weight (r = q, s = 0) or a criterion B segment (r = -q,
    s = 1), with eta = r alpha + s > 0 and k = r beta > -1."""
    q = draw(st.floats(1.0, 8.0))
    r, s = draw(st.sampled_from([(q, 0), (-q, 1)]))
    alpha = draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    beta = draw(st.floats(-1.0, 24.0, exclude_min=True)) / r
    # eta a normal float: a subnormal one has too few digits for 1e-12
    assume(s + r * alpha > 2.3e-308 and r * beta > -1)
    phi = FundamentalFn.power_log(alpha, beta, draw(st.floats(0.2, 5.0)))
    assume(phi.breaks)  # exp(-beta / alpha) underflows: no head at all
    return phi, r, s


@settings(max_examples=80, deadline=None)
@given(integrand=power_log_integrands(),
       spots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6))
@example(integrand=(FundamentalFn.power_log(0.5, 1.0), 2.0, 0), spots=[1.0])
@example(integrand=(FundamentalFn.power_log(0.5, -0.4999999999), 2.0, 0), spots=[0.0, 1.0])
@example(integrand=(FundamentalFn.power_log(0.9, 3.0), 8.0, 0), spots=[0.3, 0.95, 1.0])
@example(integrand=(FundamentalFn.power_log(0.01, 0.999), -1.0, 1), spots=[0.0, 0.5, 1.0])
def test_power_log_heads_match_the_incomplete_gamma_function(integrand, spots):
    # points spread on a log scale over the head, down to the last subnormal;
    # integrals from 0 to rel 1e-12 of the exact exponents, and each gap to
    # 1e-13 of the integral to its right end, with the float exponents
    # eta = r alpha + s and k = r beta that the piece integral reads
    phi, r, s = integrand
    c, alpha, beta = phi.form(0.0)[1]
    top = math.log(phi.breaks[0])
    xs = np.unique([max(math.exp(top + f * (math.log(5e-324) - top)), 5e-324) for f in spots])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        heads = _power_integral_rows(phi, np.zeros(len(xs)), xs, r, s)
        gaps = _power_integral_rows(phi, xs[:-1], xs[1:], r, s)
    exact = [mp_head_integral(x, mpmath.mpf(c) ** r, mpmath.mpf(r) * alpha + s,
                              mpmath.mpf(r) * beta) for x in xs]
    floats = [mp_head_integral(x, mpmath.mpf(c) ** r, s + r * alpha, r * beta) for x in xs]
    # eta near 0 sends the integral past the float range, and the piece to
    # quadrature
    assume(floats[-1] < 1e300)
    for got, want in zip(heads, exact):
        if want > 1e-290:  # subnormal results keep fewer digits
            assert abs(got - want) <= 1e-12 * want, (got, float(want))
        else:
            assert abs(got - want) <= 1e-300
    for got, g0, g1 in zip(gaps, floats[:-1], floats[1:]):
        assert abs(got - (g1 - g0)) <= 1e-13 * g1 + 1e-300, (got, float(g1 - g0))


@settings(max_examples=60, deadline=None)
@given(alpha=st.floats(0.05, 0.95), beta=st.floats(-2.0, 2.0), coeff=st.floats(0.2, 5.0),
       cap=caps, ss=st.lists(st.floats(1e-9, 0.999), min_size=1, max_size=6))
@example(alpha=0.3, beta=-0.5, coeff=1.0, cap=math.inf, ss=[1e-9, 0.5])
@example(alpha=0.5, beta=1.0, coeff=1.0, cap=0.1, ss=[1e-9, 0.99])
@example(alpha=0.9375, beta=-2.0, coeff=1.0, cap=math.inf, ss=[0.5])
def test_m_phi_reads_the_power_log_head(alpha, beta, coeff, cap, ss):
    # beta < 0: phi(b) / phi(s b), the grid maximum's bits; beta >= 0: the
    # limit s^-alpha, which no point of the grid exceeds.  Within 1e-6 of
    # beta = 0 the ratio is flat to a few ulps over the head, and the grid
    # maximum lands on its rounding; a head that ends below the grid's 1e-12
    # (alpha near 1, beta < 0) puts the peak at b out of the grid's reach
    phi = FundamentalFn.power_log(alpha, beta, coeff, cap)
    ss = np.asarray(ss)
    grid = loop_m_phi_at(phi, ss)
    got = _m_phi_values(phi, ss)
    if beta < 0 and phi.breaks[0] < 1e-12:
        assert np.all(got >= grid)
    elif beta <= -1e-6:
        assert hexes(got) == hexes(grid)
    elif beta < 0:
        np.testing.assert_allclose(got, grid, rtol=1e-15, atol=0.0)
    else:
        assert hexes(got) == hexes([x ** -alpha for x in ss.tolist()])
        # up to the grid's rounding: t^alpha / (st)^alpha for a power head
        assert np.all(grid <= got * (1 + 1e-15))


@pytest.mark.parametrize("beta", [-1.0, -0.5, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("alpha, p", [(0.5, 2.0), (0.25, 4.0), (0.5, 3.0)])
def test_power_log_heads_diverge_from_alpha_p_one(alpha, beta, p):
    # phi^-p ~ t^-alpha p |log t|^-beta p: at alpha p = 1 the ratio of B
    # grows like |log t| where the integral converges (beta p > 1), and
    # m_phi(s)^p >= c s^-1 |log s|^-beta p in every case
    phi = FundamentalFn.power_log(alpha, beta)
    assert criterion_B(phi, p) == INF
    assert m_phi_norm(phi, p) == INF


@pytest.mark.parametrize("alpha, beta", [(0.4, 1.0), (0.3, 0.5), (0.4, -1.0), (0.6, -0.5)])
@pytest.mark.parametrize("p", [1.0, 1.5])
def test_criterion_B_is_at_least_karamatas_limit(alpha, beta, p):
    # phi^p(t) / t int_0^t phi^-p -> 1 / (1 - alpha p) as t -> 0.  For
    # beta >= 0, |log s|^beta falls in s, so the ratio stays below the limit
    # on the head and past it: B is the limit.  For beta < 0 it stays above
    phi = FundamentalFn.power_log(alpha, beta)
    limit = 1.0 / (1.0 - alpha * p)
    if beta >= 0:
        assert criterion_B(phi, p) == limit
    else:
        assert criterion_B(phi, p) > limit
