"""The segmentation contract of a fundamental-function shape.

Every shape cuts an interval (lo, hi) at its own breakpoints: ``pieces``
tiles (lo, hi) with no gap, its interior ends are exactly
``kinks(lo, hi)``, and on each piece the shape is the form it declares.
"""

import math
from bisect import bisect_right

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import integrate

from rikit.maximal import zippin_upper
from rikit.rearrange import GridFn
from rikit.spaces import (
    FundamentalFn,
    NormSpec,
    OrliczN,
    PowerLogPhi,
    PsiMajorantPhi,
    _MaxPhi,
    _power_integral_rows,
    _power_on,
    _zippin_exponent,
    norm,
    psi_majorant_phi,
)

F = FundamentalFn

SHAPES = {
    "power": F.power(0.5),
    "power/capped": F.power(0.4, 2.0, cap=3.0),
    "power_log": F.power_log(0.5, 1.0),
    "power_log/cap_below_switch": F.power_log(0.5, 1.0, cap=0.1),
    "orlicz": F.orlicz_inverse(OrliczN([1.0, 2.0, 4.0], [1.0, 3.0, 10.0])),
    # Psi has slope 1/2 up to y = 1: phi is t / 2 from 1 to the cap
    "orlicz/capped": F.orlicz_inverse(OrliczN([2.0, 3.0], [1.0, 4.0]), cap=5.0),
    "sampled/cap_inside": F.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5], cap=1.5),
    "sampled/cap_past": F.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5], cap=4.0),
    "psi_majorant": psi_majorant_phi(F.power_log(0.4, 1.0), 2.0),
    "max_of_powers": _MaxPhi([F.power(0.5), F.power(0.8, 2.0)]),
    # capped components cross too: at 0.099 and at 1e-20
    "max/capped": _MaxPhi([F.power(0.3, cap=10.0), F.power(0.6, 2.0, cap=10.0)]),
    "max/capped_far_crossing": _MaxPhi([F.power(0.3, cap=10.0), F.power(0.6, 1e6, cap=10.0)]),
    # t^0.5 crosses the frozen power-log at 0.54, past its switch point
    "max/power_log": _MaxPhi([F.power_log(0.5, 1.0), F.power(0.5)]),
    # c t^alpha below its crossing with the largest ratio times t^{1/p}
    "psi_majorant/power": psi_majorant_phi(F.power(0.3), 2.0),
    # the largest ratio times t^{1/2} up to the cap, where t^0.7 meets it
    "psi_majorant/capped": psi_majorant_phi(F.power(0.7, cap=1e-6), 2.0),
    # the M^p_loc fundamentals themselves, held at phi(1) past 1
    "psi/power": PsiMajorantPhi(F.power(0.3), 2.0),
    "psi/capped": PsiMajorantPhi(F.power(0.7, cap=1e-6), 2.0),
    "psi/power_log": PsiMajorantPhi(F.power_log(0.55, 1.0), 2.0),
    "lambda_q/power_log": NormSpec.lambda_q(F.power_log(0.5, 1.0), 2.0).fundamental_phi(),
}

ENDS = st.one_of(st.just(0.0), st.floats(1e-6, 50.0))


def _form_value(kind, params, t):
    if kind == "power":
        c, alpha = params
        return c * t ** alpha
    if kind == "affine":
        c, m = params
        return c + m * t
    if kind == "power_log":
        c, alpha, beta = params
        return c * t ** alpha * abs(math.log(t)) ** beta
    assert kind == "generic"
    return float(params(t))


@pytest.mark.parametrize("name", list(SHAPES))
@settings(max_examples=60, deadline=None)
@given(ends=st.tuples(ENDS, ENDS))
def test_pieces_tile_the_interval_at_the_kinks(name, ends):
    phi = SHAPES[name]
    lo, hi = sorted(ends)
    assume(lo < hi)
    pieces = list(phi.pieces(lo, hi))
    starts = [a for (a, _, _, _) in pieces]
    stops = [b for (_, b, _, _) in pieces]
    assert starts[0] == lo and stops[-1] == hi
    assert starts[1:] == stops[:-1]
    kinks = np.asarray(phi.kinks(lo, hi), dtype=float)
    assert np.all(np.diff(kinks) > 0)
    assert np.all((kinks > lo) & (kinks < hi))
    assert stops[:-1] == kinks.tolist()
    for (a, b, kind, params) in pieces:
        assert a < b
        # near both ends, and at a probe inside; a piece from 0 is probed deep
        near_a = a + (b - a) * 1e-6 if a > 0 else b * 1e-30
        for t in (near_a, math.sqrt(max(a, 1e-6 * b) * b), b - (b - a) * 1e-6):
            want = float(phi(t))
            assert _form_value(kind, params, t) == pytest.approx(want, rel=1e-12), (a, b, t)


def test_psi_majorant_pieces_above_one_start_at_lo():
    # from 1 on psi is phi = t^(1/2), so int_2^2.5 psi^2 dt/t = 0.5; a walk
    # that started at 1 in place of 2 would give 1.5
    psi = psi_majorant_phi(F.power(0.5, cap=3.0), 2.0)
    assert [piece[:2] for piece in psi.pieces(2.0, 2.5)] == [(2.0, 2.5)]
    assert _power_integral_rows(psi, [2.0], [2.5], 2.0, 0)[0] == pytest.approx(0.5, rel=1e-14)


def test_psi_over_a_shape_below_the_floats_is_zero():
    # phi(1) = 1e-300 * 1e-300^0.3 underflows, so the best ratio above the
    # cap is 0, and its crossing with t^0.3 divided by a zero coefficient
    phi = F.power(0.3, 1e-300, 1e-300)
    psi = PsiMajorantPhi(phi, 2.0)
    assert psi.breaks == [1e-300, 1.0]
    assert psi(np.geomspace(1e-12, 10.0, 9)).tolist() == [0.0] * 9
    spec = NormSpec.marcinkiewicz_p_loc(phi, 2.0)
    assert norm(GridFn([0.0, 0.5], [1.0]), spec) == 0.0


def test_an_affine_piece_at_s_one_takes_the_log_closed_form():
    # on (0.5, 1) the shape is 0.6 + 0.4 t, and criterion B's segments
    # (r = -1, s = 1) integrate dt / (0.6 + 0.4 t): ln(0.96 / 0.84) / 0.4
    phi = F.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5])
    assert [piece[2] for piece in phi.pieces(0.6, 0.9)] == ["affine"]
    got = _power_integral_rows(phi, [0.6], [0.9], -1.0, 1)[0]
    assert got == pytest.approx(math.log(8.0 / 7.0) / 0.4, rel=1e-15)


def test_weights_of_a_max_with_capped_components_match_quadrature():
    # the pieces t^0.3 and 2 t^0.6 meet at 0.099; reading t^0.3 on all of
    # (0, 10) gives 3.1230 in place of 3.3294
    phi = SHAPES["max/capped"]
    want = integrate.quad(lambda t: phi(t) / t, 0.01, 1.0, points=phi.kinks(0.01, 1.0),
                          epsabs=0.0, epsrel=1e-13)[0]
    assert _power_integral_rows(phi, [0.01], [1.0], 1.0, 0)[0] == pytest.approx(want, rel=1e-10)


def _near_zero(phi):
    return _power_on(phi, 0.0, (phi.breaks or [math.inf])[0])


def _at_infinity(phi):
    return _power_on(phi, (phi.breaks or [0.0])[-1], math.inf)


def _psi(alpha):
    return psi_majorant_phi(F.power(alpha), 2.0)


# shape: (power near zero, power at infinity, exact Zippin index)
POWER_FACTS = {
    "power": (F.power(0.4, 2.0), (2.0, 0.4), (2.0, 0.4), 0.4),
    "power/capped": (F.power(0.4, 2.0, cap=3.0), (2.0, 0.4), None, 0.4),
    "lambda_q/power": (NormSpec.lambda_q(F.power(0.75), 2.0).fundamental_phi(),
                       (1.5 ** -0.5, 0.75), (1.5 ** -0.5, 0.75), 0.75),
    "max_of_powers": (SHAPES["max_of_powers"], (1.0, 0.5), (2.0, 0.8), 0.8),
    "max/capped": (SHAPES["max/capped"], (1.0, 0.3), None, None),
    # the steepest piece is the last: k(s) = s^0.8, exact
    "max/capped_below": (_MaxPhi([F.power(0.8), F.power(0.5, 2.0, cap=10.0)]),
                         (2.0, 0.5), (1.0, 0.8), 0.8),
    "psi/below_1_over_p": (_psi(0.3), (1.0, 0.3), (1.0, 0.3), 0.3),
    # the largest ratio phi(s) / s^{1/2} on (0, 1] is 1, at s = 1
    "psi/above_1_over_p": (_psi(0.7), (1.0, 0.5), (1.0, 0.7), 0.7),
    "power_log": (F.power_log(0.5, 1.0), None, None, None),
    "sampled": (F.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5]), None, None, None),
    # Psi is t on (0, 1), so phi(t) = t from 1 on
    "orlicz": (SHAPES["orlicz"], None, (1.0, 1.0), None),
    # one node: Psi is x / 2 everywhere, and phi is t / 2
    "orlicz/one_node": (F.orlicz_inverse(OrliczN([2.0], [1.0])), (0.5, 1.0), (0.5, 1.0), 1.0),
}


@pytest.mark.parametrize("name", list(POWER_FACTS))
def test_power_facts_are_read_off_the_pieces(name):
    phi, zero, infinity, zippin = POWER_FACTS[name]
    assert _near_zero(phi) == (pytest.approx(zero, rel=1e-15) if zero else None)
    assert _at_infinity(phi) == (pytest.approx(infinity, rel=1e-15) if infinity else None)
    assert _zippin_exponent(phi) == zippin
    rep = zippin_upper(phi)
    assert rep.beta_exact is (zippin is not None)
    if zippin is not None:
        assert rep.beta_upper == zippin


# -- the peaks of phi(s) s^{-r} ------------------------------------------------------

_CAPS = st.one_of(st.just(math.inf), st.floats(1e-4, 10.0))


@st.composite
def _orlicz(draw):
    n = draw(st.integers(1, 3))
    xs = np.cumsum(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)))
    slopes = np.cumsum(draw(st.lists(st.floats(0.2, 3.0), min_size=n, max_size=n)))
    ys = np.cumsum(slopes * np.diff(np.concatenate(([0.0], xs))))
    return F.orlicz_inverse(OrliczN(xs, ys), cap=draw(_CAPS))


_PEAK_SHAPES = st.one_of(
    st.builds(F.power_log, st.floats(0.05, 0.95), st.floats(-2.0, 2.0), st.floats(0.2, 5.0),
              _CAPS),
    _orlicz())


def _exact_ratio(phi, r):
    """s -> phi(s) s^{-r} in the working precision, from the formula of a
    power-log or an Orlicz shape below its cap."""
    if isinstance(phi, PowerLogPhi):
        return lambda s: (phi.coeff * mpmath.mpf(s) ** (phi.alpha - r)
                          * (-mpmath.log(s)) ** phi.beta)
    o = phi.orlicz

    def ratio(s):
        y = 1 / mpmath.mpf(s)  # Psi(x) = y on the segment from (x_k, y_k)
        k = min(max(bisect_right(o.ys.tolist(), y) - 1, 0), len(o.slopes) - 1)
        return mpmath.mpf(s) ** -r / (o.xs[k] + (y - o.ys[k]) / o.slopes[k])
    return ratio


def _zoomed_argmax(g, lo, hi, n=61):
    """The argmax of g on n geometric points from lo to hi, zoomed in
    around the best point until the bracket spans 1e-9 in log s."""
    a, b = mpmath.log(lo), mpmath.log(hi)
    while b - a > 1e-9:
        vs = mpmath.linspace(a, b, n)
        k = max(range(n), key=lambda i: g(mpmath.exp(vs[i])))
        a, b = vs[max(k - 1, 0)], vs[min(k + 1, n - 1)]
    return float(mpmath.exp((a + b) / 2))


@settings(max_examples=30, deadline=None)
@given(phi=_PEAK_SHAPES, r=st.floats(0.0, 1.0, exclude_min=True))
def test_peaks_are_the_local_maxima_of_each_piece(phi, r):
    # every peak is a local maximum of phi(s) s^{-r}, and a fine grid finds
    # the top of each generic piece at a peak or at an end (from 1e-200 to 1e6)
    peaks = phi.peaks(r)
    # at r = 1 an Orlicz piece reads 1 / (A s + B), which moves by A s / B
    # near s = 1e-200: 250 digits resolve it, where 30 give a flat tie
    with mpmath.workdps(250):
        g = _exact_ratio(phi, mpmath.mpf(r))
        for s in peaks:
            assert g(s) >= max(g(s * (1 - 1e-6)), g(s * (1 + 1e-6))), (s, peaks)
        for a, b, kind, _ in phi.pieces(1e-200, 1e6):
            if kind == "generic":
                top = _zoomed_argmax(g, a, b)
                assert any(abs(top - x) <= 1e-6 * x for x in (a, b, *peaks)), (top, a, b, peaks)
