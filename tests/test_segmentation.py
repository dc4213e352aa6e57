"""The segmentation contract of a fundamental-function shape.

Every shape cuts an interval (lo, hi) at its own breakpoints: ``pieces``
tiles (lo, hi) with no gap, its interior ends are exactly
``kinks(lo, hi)``, and on each piece the shape is the form it declares.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rikit.spaces import (
    FundamentalFn,
    NormSpec,
    OrliczN,
    _MaxPhi,
    _phi_weight_rows,
    geometric_grid,
    psi_majorant_phi,
)

F = FundamentalFn

SHAPES = {
    "power": F.power(0.5),
    "power/capped": F.power(0.4, 2.0, cap=3.0),
    "power_log": F.power_log(0.5, 1.0),
    "power_log/cap_below_switch": F.power_log(0.5, 1.0, cap=0.1),
    "orlicz": F.orlicz_inverse(OrliczN([1.0, 2.0, 4.0], [1.0, 3.0, 10.0])),
    "sampled/cap_inside": F.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5], cap=1.5),
    "sampled/cap_past": F.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5], cap=4.0),
    "psi_majorant": psi_majorant_phi(F.power_log(0.4, 1.0), 2.0,
                                     geometric_grid(1e-4, 1.0, 48)),
    "max_of_powers": _MaxPhi([F.power(0.5), F.power(0.8, 2.0)]),
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
        mid = math.sqrt(max(a, 1e-6 * b) * b)
        want = float(phi(mid))
        assert _form_value(kind, params, mid) == pytest.approx(want, rel=1e-12)


def test_psi_majorant_pieces_above_one_start_at_lo():
    # from 1 on psi is phi = t^(1/2), so int_2^2.5 psi^2 dt/t = 0.5; a walk
    # that started at 1 in place of 2 would give 1.5
    psi = psi_majorant_phi(F.power(0.5, cap=3.0), 2.0)
    assert [piece[:2] for piece in psi.pieces(2.0, 2.5)] == [(2.0, 2.5)]
    assert _phi_weight_rows(psi, [2.0], [2.5], 2.0)[0] == pytest.approx(0.5, rel=1e-14)
