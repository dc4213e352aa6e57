"""Maximal operators, indices, and boundedness criteria."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_rearrange import _integral_to_loop

import rikit.maximal as maximal
from rikit.errors import (
    DegenerateRatio,
    InvariantViolated,
    UnsupportedCombination,
    ZeroFunction,
)
from rikit.maximal import (
    boyd_upper_lowerbound,
    criterion_B,
    density_criteria_report,
    dilation,
    hardy,
    herz_riesz_ratios,
    indices_report,
    m_phi,
    m_phi_norm,
    maximal_decreasing,
    maximal_metric,
    zippin_upper,
)
from rikit.metric import MMS, grid_space, path_space, tree_space
from rikit.rearrange import GridFn, WeightedSamples, decreasing_rearrangement, star_star
from rikit.spaces import (
    _FAMILIES,
    FundamentalFn,
    NormSpec,
    OrliczN,
    _dyadic_integral,
    _MaxPhi,
    _power_integral_rows,
    _power_on,
    _regular_head,
    fundamental_function,
    geometric_grid,
    norm,
    psi_majorant_phi,
)

INF = math.inf


def power_profile(theta, n=64, lo=1e-6, hi=1.0):
    """Step sampling of t^{-theta} on a geometric grid (finite head)."""
    edges = np.concatenate(([0.0], np.geomspace(lo, hi, n)))
    vals = edges[1:] ** (-theta)
    return GridFn(edges, vals)


# -- maximal on the half-line -------------------------------------------------


def test_maximal_decreasing_constant():
    f = GridFn([0.0, 5.0], [3.0])
    for t in (0.1, 1.0, 5.0):
        assert maximal_decreasing(f, 2, t) == pytest.approx(3.0)


def test_maximal_decreasing_sqrt_profile():
    # int_0^t s^{-1/2} ds / t = 2 t^{-1/2}
    f = power_profile(0.5, n=4000, lo=1e-8)
    for t in (0.01, 0.1, 0.9):
        assert maximal_decreasing(f, 1, t) == pytest.approx(
            2 * t ** -0.5, rel=2e-3
        )


def test_maximal_decreasing_power_constant():
    # M_p of t^{-1/q} is c_{p,q} t^{-1/q} with c = (q/(q-p))^{1/p}
    q = 3.0
    f = power_profile(1.0 / q, n=6000, lo=1e-9)
    for p in (1.0, 2.0):
        c = (q / (q - p)) ** (1.0 / p)
        for t in (0.01, 0.3):
            assert maximal_decreasing(f, p, t) == pytest.approx(
                c * t ** (-1.0 / q), rel=3e-3
            )


def test_maximal_decreasing_divergent():
    f = GridFn([0.0, 1.0], [INF])
    assert maximal_decreasing(f, 2, 0.5) == INF


@pytest.mark.parametrize("op", [
    lambda u, t: star_star(u, t),
    lambda u, t: maximal_decreasing(u, 2, t),
    lambda u, t: hardy(0.5, u, t),
    lambda u, t: hardy(0.5, GridFn(u.edges, u.values, 0.5), t),
], ids=["star_star", "maximal_decreasing", "hardy", "hardy-tail"])
def test_half_line_operators_need_a_finite_t(op):
    # t = inf read nan or inf, with a RuntimeWarning from maximal_decreasing;
    # the integral up to inf is the total, with or without a tail
    u = GridFn([0, 1, 2], [3, 1])
    assert u.integral_to(INF) == u.total_integral() == 4.0
    assert u.integral_to(INF, 2.0) == u.total_integral(2.0) == 10.0
    tailed = GridFn([0, 1, 2], [3, 1], 0.5)
    assert tailed.integral_to(INF) == tailed.total_integral() == INF
    for t in (INF, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            op(u, t)
    assert op(u, 1.5) > 0


# -- metric maximal -----------------------------------------------------------


def test_maximal_metric_constant():
    s = path_space(5)
    out = maximal_metric(s, np.full(5, 2.0), 1)
    assert np.allclose(out, 2.0)


def test_maximal_metric_two_point_example():
    s = MMS([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    out = maximal_metric(s, [0.0, 2.0], 1)
    assert np.allclose(out, [1.0, 2.0])


def test_maximal_metric_indicator_lower_bound():
    n = 6
    s = path_space(n)
    u = np.zeros(n)
    u[2] = 1.0
    out = maximal_metric(s, u, 1)
    assert np.all(out >= 1.0 / n - 1e-12)
    assert np.all(out >= np.abs(u) - 1e-12)


def test_maximal_metric_dominates_pointwise():
    rng = np.random.default_rng(3)
    for _ in range(10):
        s = path_space(int(rng.integers(2, 9)))
        u = rng.normal(size=s.n)
        for p in (1.0, 2.0):
            out = maximal_metric(s, u, p)
            assert np.all(out >= np.abs(u) - 1e-12)


# -- Herz-Riesz ratios -----------------------------------------------------------


def test_herz_one_point_ratio_one():
    s = MMS([[0.0]], [2.0])
    hr = herz_riesz_ratios(s, [3.0], 1)
    assert hr.min_ratio == pytest.approx(1.0)
    assert hr.max_ratio == pytest.approx(1.0)


def test_herz_constant_ratio_one():
    s = path_space(6)
    hr = herz_riesz_ratios(s, np.full(6, 1.5), 2)
    assert hr.min_ratio == pytest.approx(1.0, abs=1e-9)
    assert hr.max_ratio == pytest.approx(1.0, abs=1e-9)


def test_herz_zero_function_rejected():
    s = path_space(3)
    with pytest.raises(ZeroFunction):
        herz_riesz_ratios(s, np.zeros(3), 1)


def test_herz_two_sided_on_families():
    rng = np.random.default_rng(2024)
    for space in (path_space(30), grid_space(5, 6), tree_space(2, 3)):
        for seed in range(5):
            u = np.random.default_rng(seed).normal(size=space.n)
            hr = herz_riesz_ratios(space, u, 1)
            assert hr.min_ratio > 0.05
            assert hr.max_ratio < 20.0


def _herz_riesz_loop(space, u, p):
    # herz_riesz_ratios as it ran before: one point of the grid at a time
    meas = space.total_measure
    ustar = decreasing_rearrangement(WeightedSamples(u, space.weights))
    mstar = decreasing_rearrangement(
        WeightedSamples(maximal_metric(space, u, p), space.weights))
    lo = float(np.min(space.weights)) / 4.0
    samples = []
    for t in geometric_grid(min(lo, meas / 8), meas * (1 - 1e-9), 48).tolist():
        s = _integral_to_loop(ustar, t, p)
        num = (s / t) ** (1.0 / p) if math.isfinite(s) else INF
        den = mstar.value_at(t)
        if den > 0:
            samples.append((t, num / den))
    return samples


@pytest.mark.parametrize("space", [path_space(40), grid_space(8, 8), tree_space(2, 4)],
                         ids=["path", "grid", "tree"])
def test_herz_matches_per_point_loop(space):
    rng = np.random.default_rng(space.n)
    for _ in range(3):
        u = rng.normal(size=space.n) * (rng.uniform(size=space.n) < 0.7)
        for p in (1.0, 2.0, 3.0):
            hr = herz_riesz_ratios(space, u, p)
            want = _herz_riesz_loop(space, u, p)
            assert len(hr.samples) == len(want)
            assert [t for t, _ in hr.samples] == [t for t, _ in want]
            got, ref = np.array([r for _, r in hr.samples]), np.array([r for _, r in want])
            if p == 1.0:
                assert [x.hex() for x in got.tolist()] == [x.hex() for x in ref.tolist()]
            else:
                assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref))
            assert (hr.min_ratio, hr.max_ratio) == (min(got), max(got))


# -- Hardy operator ---------------------------------------------------------------


def test_hardy_indicator():
    f = GridFn([0.0, 1.0], [1.0])
    for a in (0.25, 0.5, 1.0):
        for t in (0.3, 1.0):
            assert hardy(a, f, t) == pytest.approx(1.0 / a, rel=1e-12)
    assert hardy(1.0, f, 2.0) == pytest.approx(0.5)


def test_hardy_zero():
    f = GridFn([0.0, 1.0], [0.0])
    assert hardy(0.5, f, 0.7) == 0.0


def test_hardy_sandwich_vs_maximal():
    # P_{1/q} u* <= C1 M_p u* <= C2 P_{1/p} u* for q < p (frozen constants)
    rng = np.random.default_rng(5)
    p, q = 2.0, 1.5
    c1, c2 = 4.0, 4.0
    for _ in range(25):
        n = int(rng.integers(1, 10))
        vals = np.sort(rng.uniform(0.1, 4, n))[::-1]
        f = GridFn(np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 1, n)))), vals)
        for t in np.geomspace(0.05, f.support_end, 12):
            mp = maximal_decreasing(f, p, t)
            assert hardy(1.0 / q, f, t) <= c1 * mp + 1e-9
            assert mp <= c2 * hardy(1.0 / p, f, t) + 1e-9


# -- dilation ------------------------------------------------------------------------


def test_dilation_identity_and_scaling():
    f = GridFn([0.0, 1.0], [1.0])
    assert np.allclose(dilation(f, 1.0).edges, f.edges)
    half = dilation(f, 0.5)
    assert np.allclose(half.edges, [0.0, 2.0])
    twice = dilation(f, 2.0)
    assert np.allclose(twice.edges, [0.0, 0.5])


# -- Zippin / Boyd indices --------------------------------------------------------------


def test_zippin_power_exact():
    for p in (1.5, 2.0, 4.0):
        rep = zippin_upper(FundamentalFn.power(1.0 / p))
        assert rep.beta_upper == pytest.approx(1.0 / p)
        assert rep.beta_exact
        for s, k in rep.k_samples:
            assert 1.0 - 1e-12 <= k <= s + 1e-12


def test_zippin_constant_phi():
    rep = zippin_upper(FundamentalFn.power(0.0))
    assert rep.beta_upper == pytest.approx(0.0)
    for s, k in rep.k_samples:
        assert k == pytest.approx(1.0)


def test_zippin_max_power():
    from rikit.spaces import _MaxPhi

    q, s0 = 2.0, 5.0
    phi = _MaxPhi([FundamentalFn.power(1.0 / q), FundamentalFn.power(1.0 / s0)])
    rep = zippin_upper(phi)
    assert rep.beta_upper == pytest.approx(1.0 / q)


def test_zippin_sampled_estimate_bounds():
    phi = FundamentalFn.sampled([0.5, 1.0, 2.0], [0.7, 1.0, 1.2])
    rep = zippin_upper(phi)
    for s, k in rep.k_samples:
        assert 1.0 - 1e-9 <= k <= s + 1e-9
    assert 0.0 <= rep.beta_upper <= 1.0


def _zippin_loop(phi, s_grid):
    # phi(s t) on the grid of t and on phi's kinks over s, one s at a time
    hi = phi.cap if math.isfinite(phi.cap) else 1e4
    grid = np.unique(np.concatenate((
        geometric_grid(1e-10, max(hi * 4, 1.0), 512), phi.kinks(1e-10, max(hi * 4, 1.0)))))
    out = []
    for s in s_grid:
        tg = np.concatenate((grid, np.asarray(phi.breaks) / s))
        den = np.maximum(np.asarray(phi(tg), dtype=float), 1e-300)
        out.append((float(s), float(np.max(np.asarray(phi(s * tg), dtype=float) / den))))
    return out


@pytest.mark.parametrize("phi", [
    *(FundamentalFn.power_log(a, b) for a in (0.3, 0.5, 0.7) for b in (0.5, 1.0)),
    FundamentalFn.sampled([0.5, 1.0, 2.0], [0.7, 1.0, 1.2]),
    FundamentalFn.power_log(0.4, -1.0, cap=3.0),
])
def test_zippin_dilations_match_one_s_at_a_time(phi):
    got = zippin_upper(phi).k_samples
    want = _zippin_loop(phi, maximal._S_GRID)
    assert [(s.hex(), k.hex()) for s, k in got] == [(s.hex(), k.hex()) for s, k in want]


def test_boyd_closed_forms():
    assert boyd_upper_lowerbound(NormSpec.lp(2)).alpha_lower == pytest.approx(0.5)
    assert boyd_upper_lowerbound(NormSpec.lorentz(4, 2)).alpha_lower == pytest.approx(0.25)
    rep = boyd_upper_lowerbound(NormSpec.lp(2))
    assert rep.alpha_exact and not rep.lower_bound_only


def test_boyd_candidate_lower_bound_weak_marc():
    # the indicators are the candidates: h(s) >= k(s) = s here, phi = t up to 1
    spec = NormSpec.weak_marcinkiewicz(FundamentalFn.sampled([1.0], [1.0]))
    rep = boyd_upper_lowerbound(spec, s_grid=[2.0, 8.0])
    assert rep.lower_bound_only
    for s, h in rep.h_samples:
        assert h == pytest.approx(s, rel=1e-12)
    assert rep.alpha_lower == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("s_grid", [[1.0], [0.5, 2.0], [2.0, math.nan], [math.inf]])
def test_index_reports_reject_s_below_one_or_not_finite(s_grid):
    # the closed forms check the grid too, before they use it
    for spec in (NormSpec.marcinkiewicz_p(FundamentalFn.power_log(0.5, 1.0), 2.0),
                 NormSpec.lp(2.0)):
        with pytest.raises(ValueError, match="s grid"):
            boyd_upper_lowerbound(spec, s_grid=s_grid)
        with pytest.raises(ValueError, match="s grid"):
            zippin_upper(spec.fundamental_phi(), s_grid)


@pytest.mark.parametrize("spec", [NormSpec.lp(2.0),
                                  NormSpec.marcinkiewicz(FundamentalFn.power_log(0.5, 1.0))],
                         ids=["lp", "marc-powerlog"])
def test_index_reports_reject_an_empty_s_grid(spec):
    # the closed form read no s and returned no samples; the grid estimate
    # took min() of an empty sequence
    with pytest.raises(ValueError, match="s grid must be nonempty"):
        indices_report(spec, s_grid=[])


# every family over shapes with and without a closed-form Boyd index
_BOYD_SHAPES = {
    "powerlog(0.5,1)": FundamentalFn.power_log(0.5, 1.0),
    "powerlog(0.4,-1,cap 3)": FundamentalFn.power_log(0.4, -1.0, cap=3.0),
    "sampled": FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5]),
    "power(0.5,2,cap 3)": FundamentalFn.power(0.5, 2.0, 3.0),
    "power(0.3)": FundamentalFn.power(0.3),
}
BOYD_SPECS = {
    "lp(2)": NormSpec.lp(2.0),
    "lorentz(3,2)": NormSpec.lorentz(3.0, 2.0),
    "lorentz_weak(2)": NormSpec.lorentz_weak(2.0),
    "orlicz([1,2],[1,4])": NormSpec.orlicz_lux(OrliczN([1, 2], [1, 4])),
    "max(lp(2),lambda(powerlog))": NormSpec.intersection_max(
        NormSpec.lp(2.0), NormSpec.lambda_phi(FundamentalFn.power_log(0.5, 1.0))),
    **{f"{fam}({k})": make(phi) for k, phi in _BOYD_SHAPES.items() for fam, make in [
        ("lambda", NormSpec.lambda_phi), ("lambda_q", lambda f: NormSpec.lambda_q(f, 2.0)),
        ("marc", NormSpec.marcinkiewicz), ("weak_marc", NormSpec.weak_marcinkiewicz),
        ("marc_p", lambda f: NormSpec.marcinkiewicz_p(f, 2.0)),
        ("marc_p_loc", lambda f: NormSpec.marcinkiewicz_p_loc(f, 3.0))]},
}


def _indicator_shape(spec):
    """The shape the Boyd bounds read: the family's indicator shape, or
    the fundamental shape where the family names none."""
    shape = _FAMILIES[spec.family].indicator(spec)
    return spec.fundamental_phi() if shape is None else shape


@pytest.mark.parametrize("name", list(BOYD_SPECS))
def test_boyd_bounds_read_the_norms_of_indicators(name):
    # h(s) >= k(s) holds for k of the indicator norms only; for M^p over the
    # sampled shape max(psi, phi) reads 1 at t = 1, the indicator 1.5/sqrt(2).
    # The sup norms take a grid maximum over a generic piece, 6e-8 low here
    spec = BOYD_SPECS[name]
    shape = _indicator_shape(spec)
    for t in (1e-3, 0.05, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 10.0):
        assert shape(t) == pytest.approx(fundamental_function(spec, t), rel=1e-6, abs=0.0)


@pytest.mark.parametrize("name", list(BOYD_SPECS))
def test_boyd_bounds_without_a_closed_form_are_the_indicator_ones(name):
    # without a closed form the indicators give the bounds: h(s) = k(s) and
    # alpha_lower = the fundamental index of their norms, flagged as lower
    # bounds, and an estimate unless that index is exact
    spec = BOYD_SPECS[name]
    rep = boyd_upper_lowerbound(spec)
    if spec.boyd_alpha_exact() is not None:
        assert rep.alpha_exact and not rep.lower_bound_only
        return
    z = zippin_upper(_indicator_shape(spec))
    assert rep.h_samples == z.k_samples
    assert rep.alpha_lower == z.beta_upper
    assert rep.lower_bound_only and not rep.alpha_exact
    assert rep.note == "indicator lower bounds only" + (
        "" if z.beta_exact else "; alpha_lower a grid estimate")
    full = indices_report(spec)
    assert (full.h_samples, full.alpha_lower) == (rep.h_samples, rep.alpha_lower)
    assert full.note.endswith(rep.note)
    if _FAMILIES[spec.family].indicator(spec) is None:
        assert full.k_samples == z.k_samples


def test_mp_indicators_need_a_ratio_that_does_not_rise_at_infinity():
    # phi(s) s^{-1/p} grows without bound: no indicator of M^p has a finite norm
    spec = NormSpec.marcinkiewicz_p(FundamentalFn.power(0.6), 2.0)
    assert fundamental_function(spec, 1.0) == INF
    with pytest.raises(UnsupportedCombination, match="no finite indicator norms"):
        _FAMILIES[spec.family].indicator(spec)


def _brute_zippin(phi, s):
    """sup_t phi(st) / phi(t) over phi's kinks, the kinks over s and 2e5
    log-spaced points, then over 2e4 points between the best one's neighbours."""
    pts = np.unique(np.concatenate((np.asarray(phi.breaks), np.asarray(phi.breaks) / s,
                                    np.geomspace(1e-14, 1e6, 200_000))))
    ratio = np.asarray(phi(s * pts)) / np.asarray(phi(pts))
    i = int(np.argmax(ratio))
    zoom = np.linspace(pts[max(i - 1, 0)], pts[min(i + 1, len(pts) - 1)], 20_000)
    return max(float(ratio[i]), float(np.max(np.asarray(phi(s * zoom)) / np.asarray(phi(zoom)))))


@pytest.mark.parametrize("phi", [
    FundamentalFn.power_log(a, b, cap=cap)
    for a, b in [(0.3, -1.0), (0.5, -0.5), (0.7, -2.0), (0.4, -0.1)]
    for cap in (INF, 3.0, 0.05)
], ids=lambda phi: f"powerlog({phi.alpha},{phi.beta},cap {phi.cap})")
def test_zippin_tops_where_st_meets_a_kink(phi):
    # for beta < 0, phi(st) / phi(t) grows until st reaches the switch point
    # or the cap, so k(s) sits at a kink over s, off any fixed grid
    for s, k in zippin_upper(phi).k_samples:
        assert k == pytest.approx(_brute_zippin(phi, s), rel=1e-12)


def test_an_uncapped_orlicz_shape_has_the_exact_boyd_index_one():
    # Psi runs through the origin with slope 1 up to y = 1, so phi(t) = t
    # from 1 on; s_1 t <= phi(t) <= s_last t makes the index 1 exactly
    phi = FundamentalFn.orlicz_inverse(OrliczN([1, 2, 4], [1, 3, 10]))
    f = GridFn([0, 1, 2], [2, 1])
    assert norm(f, NormSpec.marcinkiewicz(phi)) == 3.0
    assert norm(f, NormSpec.marcinkiewicz_p(phi, 1)) == 3.0
    assert norm(f, NormSpec.marcinkiewicz_p(phi, 2)) == INF
    rep = boyd_upper_lowerbound(NormSpec.lambda_phi(phi))
    assert rep.alpha_exact and rep.alpha_lower == 1.0


def test_index_report_invariants():
    # 1 <= k(s) <= h(s) <= s on shared s values
    for spec in (NormSpec.lp(2), NormSpec.lorentz(3, 1)):
        rep = indices_report(spec, s_grid=[2.0, 16.0, 256.0])
        for (s, k), (s2, h) in zip(rep.k_samples, rep.h_samples):
            assert s == s2
            assert 1.0 - 1e-12 <= k <= h + 1e-12 <= s + 1e-12


# -- criterion B and m_phi ----------------------------------------------------------------


def doubling_criterion_B(phi, p, delta):
    """criterion_B as it stood with the refinement-doubling check toward
    zero, which never fired: on neighbouring grid points t' < t, phi and the
    inner integral do not grow toward 0, so the values grow by at most
    t / t' = 10^(18/159) < 2."""
    pe = _power_on(phi, 0.0, delta)
    if pe is not None:
        return INF if pe[1] >= 1.0 / p else 1.0 / (1.0 - pe[1] * p)
    if maximal._power_diverges(phi, p):
        return INF
    lo = delta * 1e-18
    ts = np.unique(np.concatenate((geometric_grid(lo, delta, 160), phi.kinks(lo, delta),
                                   [delta])))
    ts = ts[(ts > 0) & (ts <= delta)]
    inners = np.cumsum(_power_integral_rows(phi, np.concatenate(([0.0], ts[:-1])), ts, -p, 1))
    if not np.all(np.isfinite(inners)):
        return INF
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
    head = _regular_head(phi, 0.0)
    return best if head is None else max(best, 1.0 / (1.0 - head[1] * p))


@st.composite
def concave_sampled(draw):
    """Increasing concave piecewise-linear shapes: positive slopes that fall."""
    n = draw(st.integers(1, 5))
    widths = draw(st.lists(st.floats(0.01, 2.0), min_size=n, max_size=n))
    slopes = sorted(draw(st.lists(st.floats(0.01, 3.0), min_size=n, max_size=n)),
                    reverse=True)
    return FundamentalFn.sampled(np.cumsum(widths), np.cumsum(np.multiply(widths, slopes)))


_POWER_LOGS = st.builds(FundamentalFn.power_log, st.floats(0.05, 0.95, exclude_min=True,
                                                            exclude_max=True),
                        st.floats(-2.0, 2.0))
_CAPPED_POWERS = st.builds(FundamentalFn.power, st.floats(0.0, 1.0), st.floats(0.2, 5.0),
                           st.floats(0.05, 20.0))
_B_SHAPES = st.one_of(
    _POWER_LOGS, _CAPPED_POWERS, concave_sampled(),
    st.builds(lambda a, b: _MaxPhi([a, b]), _POWER_LOGS | concave_sampled(), _CAPPED_POWERS),
    st.builds(psi_majorant_phi, _POWER_LOGS | _CAPPED_POWERS | concave_sampled(),
              st.sampled_from([1.0, 2.0, 3.0])))


@settings(max_examples=150, deadline=None)
@given(phi=_B_SHAPES, p=st.sampled_from([1.0, 1.05, 1.5, 2.0, 3.0]),
       delta=st.sampled_from([0.37, 1.0, 5.0]))
def test_criterion_B_matches_the_doubling_check_bitwise(phi, p, delta):
    assert criterion_B(phi, p, delta).hex() == doubling_criterion_B(phi, p, delta).hex()


@pytest.mark.parametrize("p,q", [(1, 2), (1, 4), (2, 3), (2, 4)])
def test_criterion_b_closed_form(p, q):
    val = criterion_B(FundamentalFn.power(1.0 / q), p, 1.0)
    assert val == pytest.approx(q / (q - p), rel=0.01)


def test_criterion_b_divergent_cases():
    assert criterion_B(FundamentalFn.power(0.5), 2, 1.0) == INF
    assert criterion_B(FundamentalFn.power(0.5), 3, 1.0) == INF
    assert criterion_B(FundamentalFn.power(1.0), 1, 1.0) == INF


def test_criterion_b_half_power():
    assert criterion_B(FundamentalFn.power(0.5), 1, 1.0) == pytest.approx(2.0, rel=0.01)


def test_criterion_b_sampled_linear_at_zero_divergent():
    phi = FundamentalFn.sampled([1.0, 2.0], [1.0, 1.5])
    assert criterion_B(phi, 1, 1.0) == INF


def test_criterion_b_sampled_power_is_divergent():
    # piecewise-linear interpolation of t^{1/3} is linear near zero, so the
    # inner integral int phi^{-2} genuinely diverges (unlike the true power)
    ts = np.geomspace(1e-10, 1.0, 400)
    phi = FundamentalFn.sampled(ts, ts ** (1.0 / 3.0))
    assert criterion_B(phi, 2, 1.0) == INF


def test_criterion_b_numeric_capped_power_vs_quad():
    from scipy.integrate import quad

    phi = FundamentalFn.power(1.0 / 3.0, cap=0.5)
    p = 2.0
    val = criterion_B(phi, p, 1.0)

    def b_of_t(t):
        inner, _ = quad(lambda s: float(phi(s)) ** -p, 0.0, t, points=[0.5] if t > 0.5 else None)
        return float(phi(t)) ** p * inner / t

    oracle = max(b_of_t(t) for t in np.geomspace(1e-6, 1.0, 200))
    assert val == pytest.approx(oracle, rel=1e-3)


@pytest.mark.parametrize("coeff", [1e-300, 1e-200, 1e-100, 1e200])
@pytest.mark.parametrize("shape,p,delta", [
    (lambda c: FundamentalFn.power(0.3, c, cap=0.5), 2.0, 1.0),
    (lambda c: FundamentalFn.power(0.3, c, cap=0.5), 3.0, 0.37),
    (lambda c: FundamentalFn.power_log(0.4, -1.0, coeff=c), 2.0, 1.0),
    (lambda c: FundamentalFn.power_log(0.2, 1.0, coeff=c, cap=0.05), 3.0, 5.0)])
def test_criterion_b_scales_out_the_coefficient(shape, p, delta, coeff):
    # B is the same for c phi, also where (c phi)^-p passes the float range
    want = criterion_B(shape(1.0), p, delta)
    assert math.isfinite(want)
    assert criterion_B(shape(coeff), p, delta) == pytest.approx(want, rel=1e-12, abs=0.0)


# (shape over its coefficient c, q, p, c): the Lambda^q shapes whose reports
# raised, or read (iv) false, before W was taken over phi near 1 at t = 1
LAMBDA_Q_SCALES = [
    (lambda c: FundamentalFn.power(0.3, c, cap=0.5), 2.0, 2.0, 1e200),
    (lambda c: FundamentalFn.power(0.3, c, cap=0.5), 2.0, 2.0, 1e-200),
    (lambda c: FundamentalFn.power(0.3, c, cap=0.5), 2.0, 2.0, 1e-150),
    (lambda c: FundamentalFn.power_log(0.5, 1.0, coeff=c), 1.5, 3.0, 1e-200),
    (lambda c: FundamentalFn.power_log(0.4, -1.0, coeff=c), 2.5, 3.0, 1e150),
    (lambda c: FundamentalFn.power(0.3, c, cap=2.0), 2.0, 1.0, 1e-150),
    (lambda c: FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8 * c, c, 1.5 * c]), 1.5, 2.0, 1e200),
]


def _report_numbers(spec, p):
    """Every status, numeric certificate value and index of the density and
    index reports of spec at p."""
    out = {}
    for cid, verdict in density_criteria_report(spec, p).conditions.items():
        out[cid] = verdict.status
        out.update({(cid, k): float(v) for k, v in (verdict.certificate or {}).items()
                    if isinstance(v, (int, float)) and not isinstance(v, bool)})
    rep = indices_report(spec)
    return {**out, "beta": rep.beta_upper, "alpha": rep.alpha_lower,
            **{("k", s): k for s, k in rep.k_samples}}


@pytest.mark.parametrize("shape,q,p,coeff", LAMBDA_Q_SCALES)
def test_lambda_q_reports_scale_out_the_coefficient(shape, q, p, coeff):
    # W of c phi is c W: the fundamental scales by c, and every status,
    # certificate value and index reads as at c = 1
    spec, unit = (NormSpec.lambda_q(shape(c), q) for c in (coeff, 1.0))
    ts = np.geomspace(1e-9, 10.0, 7)
    np.testing.assert_allclose(spec.fundamental_phi()(ts) / coeff, unit.fundamental_phi()(ts),
                               rtol=1e-14, atol=0.0)
    got, want = _report_numbers(spec, p), _report_numbers(unit, p)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == (value if isinstance(value, str) or not math.isfinite(value)
                            else pytest.approx(value, rel=1e-13, abs=0.0)), key


@pytest.mark.parametrize("phi,delta", [
    (lambda: FundamentalFn.power(0.3, 1e-300, cap=1e-300), 1.0),  # phi(1) underflows to 0
    (lambda: FundamentalFn.power(0.3, 1e308, cap=1e5), 1e10)])  # phi(1e10) overflows
def test_criterion_b_raises_where_phi_leaves_the_float_range(phi, delta):
    # no power of two brings phi(delta) near 1: a typed error, not a math error
    with np.errstate(over="ignore"):  # the capped value is inf
        phi = phi()
    with pytest.raises(UnsupportedCombination, match="outside the float range"):
        criterion_B(phi, 2.0, delta)


def test_zippin_upper_of_a_vanishing_shape_is_degenerate():
    with pytest.raises(DegenerateRatio, match="positive at no s"):
        zippin_upper(FundamentalFn.sampled([1.0, 2.0], [0.0, 0.0]))


def test_criterion_b_weak_bound_inequality():
    # B finite implies sup M_p u* phi <= B^{1/p} sup u* phi on (0, delta)
    rng = np.random.default_rng(10)
    p, q = 2.0, 4.0
    phi = FundamentalFn.power(1.0 / q)
    B = criterion_B(phi, p, 1.0)
    for _ in range(30):
        n = int(rng.integers(1, 8))
        vals = np.sort(rng.uniform(0, 3, n))[::-1]
        f = GridFn(np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 0.3, n)))), vals)
        weak = max(v * float(phi(e)) for v, e in zip(f.values, f.edges[1:]))
        ts = np.geomspace(1e-6, 1.0, 64)
        lhs = max(maximal_decreasing(f, p, t) * float(phi(t)) for t in ts)
        assert lhs <= B ** (1.0 / p) * weak * (1 + 1e-9)


def test_m_phi_closed_forms():
    phi = FundamentalFn.power(1.0 / 3)
    assert m_phi(phi, 0.25) == pytest.approx(0.25 ** (-1.0 / 3))
    assert m_phi_norm(phi, 2) == pytest.approx((3.0 / (3 - 2)) ** 0.5, rel=1e-6)
    assert m_phi_norm(FundamentalFn.power(0.0), 2) == pytest.approx(1.0)
    assert m_phi_norm(FundamentalFn.power(0.5), 2) == INF


BORDERLINE = [
    (psi_majorant_phi(FundamentalFn.power(0.6), 2.0), 2.0),
    (psi_majorant_phi(FundamentalFn.power(0.7), 2.0), 2.0),
    (psi_majorant_phi(FundamentalFn.power(0.8), 2.0), 2.0),
    (_MaxPhi([FundamentalFn.power(0.5), FundamentalFn.power(0.8)]), 2.0),
    (psi_majorant_phi(FundamentalFn.power(0.6), 3.0), 3.0),
    # exponent 1/p, where (1/p) * p rounds to 1 - 2^-53
    *((psi_majorant_phi(FundamentalFn.power(0.9), p), p) for p in (12.25, 24.5, 25.75)),
]
BORDERLINE_IDS = ["psi-0.6", "psi-0.7", "psi-0.8", "max", "psi-0.6-p3", "psi-0.9-p12.25",
                  "psi-0.9-p24.5", "psi-0.9-p25.75"]


def _m_phi_integrand(phi, p):
    return lambda s: np.asarray([m ** p for m in maximal._m_phi_at(phi, s).tolist()])


def _no_integrals(monkeypatch):
    def integrate(*args):
        raise AssertionError("integrated at the borderline")

    for name in ("_dyadic_integral", "_power_integral_rows"):
        monkeypatch.setattr(maximal, name, integrate)


@pytest.mark.parametrize("phi, p", BORDERLINE, ids=BORDERLINE_IDS)
def test_m_phi_norm_is_inf_at_the_borderline_without_refining(phi, p, monkeypatch):
    # m_phi(s) >= s^{-alpha} with alpha p = 1: int_0^1 s^{-1} ds diverges
    _no_integrals(monkeypatch)
    assert m_phi_norm(phi, p) == INF
    monkeypatch.undo()
    # the refinement reaches the same verdict
    assert _dyadic_integral(_m_phi_integrand(phi, p), 1.0) == INF


@pytest.mark.parametrize("phi, p", BORDERLINE, ids=BORDERLINE_IDS)
def test_criterion_B_is_inf_at_the_borderline_without_integrating(phi, p, monkeypatch):
    # phi^{-p} ~ t^{-alpha p} with alpha p = 1: the inner integral diverges
    _no_integrals(monkeypatch)
    assert criterion_B(phi, p) == INF


@pytest.mark.parametrize("p", [12.25, 24.5, 25.75, 49.0])
def test_report_compares_the_exponent_with_one_over_p(p):
    # psi ~ t^{1/p} near 0, where (1/p) * p rounds to 1 - 2^-53: (iv) fails,
    # so (v) and (vi), which imply it, fail too
    rep = density_criteria_report(NormSpec.marcinkiewicz_p(FundamentalFn.power(0.9), p), p)
    assert [rep.conditions[cid].status for cid in ("iv", "v", "vi")] == ["false"] * 3


def test_m_phi_norm_refines_just_below_the_borderline(monkeypatch):
    # the components cross at 0.967, so phi is no power on (0, 1)
    phi = _MaxPhi([FundamentalFn.power(0.499), FundamentalFn.power(0.8, 1.01)])
    calls = []

    def refine(g, b):
        calls.append(b)
        return _dyadic_integral(g, b)

    monkeypatch.setattr(maximal, "_dyadic_integral", refine)
    # m_phi^2 ~ 1.0201 s^-0.998 decays too slowly for the tail rule: the 200
    # levels hold under half the integral, and their geometric tail the rest.
    # 22.5842792 is a 400,001-point log-trapezoid of m_phi^2 on (1e-200, 1)
    # plus its closed-form head
    assert m_phi_norm(phi, 2.0) == pytest.approx(22.5842792, rel=1e-6)
    assert calls == [1.0]


def _m_phi_loop(phi, s):
    # one grid per s, built and evaluated on its own
    t_grid = np.unique(np.concatenate((
        np.geomspace(1e-12, 1.0, 192), phi.kinks(1e-12, 1.0),
        phi.kinks(1e-12, 1.0) / s, [1.0])))
    t_grid = t_grid[(t_grid > 0) & (t_grid <= 1.0)]
    num = np.asarray(phi(t_grid), dtype=float)
    den = np.maximum(np.asarray(phi(s * t_grid), dtype=float), 1e-300)
    return float(np.max(num / den))


def _m_phi_norm_loop(phi, p):
    def integrand(s):
        arr = np.atleast_1d(np.asarray(s, dtype=float))
        return np.asarray([_m_phi_loop(phi, float(x)) ** p for x in arr])

    val = _dyadic_integral(integrand, 1.0)
    return val ** (1.0 / p) if math.isfinite(val) else INF


@pytest.mark.parametrize("phi", [
    FundamentalFn.power_log(0.5, 1.0),
    FundamentalFn.power_log(0.3, -0.5),
    FundamentalFn.sampled([0.1, 0.3, 0.7, 1.0], [0.4, 0.6, 0.9, 1.0]),
    # convex then concave: the supremum sits where s t meets the kink at 0.2
    FundamentalFn.sampled([0.2, 0.6, 1.0], [0.1, 0.6, 0.7]),
    psi_majorant_phi(FundamentalFn.power_log(0.55, 1.0), 2.0),
    _MaxPhi([FundamentalFn.power(0.3), FundamentalFn.power(0.6, 2.0)]),
], ids=["powerlog", "powerlog-neg", "sampled", "sampled-kink", "psi", "max"])
def test_m_phi_matches_per_s_loop(phi):
    # log phi concave in log t (a power-log head with beta >= 0, then a
    # constant): m_phi(s) is the limit s^-alpha at t -> 0, which no grid
    # point exceeds; every other shape keeps the grid maximum's bits
    head = _regular_head(phi, 1.0)
    concave = head is not None and head[2] >= 0
    for s in (1e-9, 0.013, 0.37, 0.5, 0.99):
        if concave:
            assert m_phi(phi, s) == s ** -head[1] >= _m_phi_loop(phi, s)
        else:
            assert m_phi(phi, s) == _m_phi_loop(phi, s)
    for p in (1.0, 1.5):
        if concave:
            assert m_phi_norm(phi, p) == pytest.approx((1.0 - head[1] * p) ** (-1.0 / p),
                                                       rel=1e-15)
        else:
            got, want = m_phi_norm(phi, p), _m_phi_norm_loop(phi, p)
            assert got == want, (got.hex(), want.hex())


# -- criteria report -------------------------------------------------------------------------


def test_criteria_lorentz_below_p0():
    rep = density_criteria_report(NormSpec.lorentz(3, 2), p=2)
    assert rep.conditions["v"].is_true
    assert rep.conditions["v"].certificate["witness_q"] == pytest.approx(3.0)
    assert rep.density_verdict


def test_criteria_lp_complete_at_p():
    rep = density_criteria_report(NormSpec.lp(2), p=2, complete_space=True)
    assert rep.conditions["c-i"].is_true
    assert rep.density_verdict


def test_criteria_lp_at_p_true_via_embedding():
    # N^1 L^p density on p-Poincare spaces (the classical regime): the
    # strict index and supremum conditions all fail, but the embedding
    # conditions hold since M^p_loc(L^p) is L^p on finite measure
    rep = density_criteria_report(NormSpec.lp(2), p=2)
    for cid in ("iv", "v", "vi", "vii", "viii", "ix"):
        assert not rep.conditions[cid].is_true
    for cid in ("i", "ii", "iii"):
        assert rep.conditions[cid].is_true
    assert rep.density_verdict


def test_criteria_lorentz_q_above_p0_strict_at_p0_fails():
    # the open-case family: q0 > p0; at p = p0 nothing fires without
    # completeness, and the complete-space relaxation flips the verdict
    rep = density_criteria_report(NormSpec.lorentz(2, 3), p=2)
    assert not any(v.is_true for v in rep.conditions.values())
    assert not rep.density_verdict
    rep_c = density_criteria_report(NormSpec.lorentz(2, 3), p=2,
                                    complete_space=True)
    assert rep_c.conditions["c-i"].is_true
    assert rep_c.density_verdict


def test_criteria_weak_marcinkiewicz_warns():
    spec = NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5))
    rep = density_criteria_report(spec, p=2)
    assert rep.ac_norm is False
    assert any("absolute continuity" in w for w in rep.warnings)
    for cid in ("iv", "v", "vi", "vii", "viii", "ix"):
        assert rep.conditions[cid].status in ("false", "inconclusive")
    assert not rep.density_verdict


@pytest.mark.parametrize("spec", [
    NormSpec.marcinkiewicz_p_loc(FundamentalFn.power(0.75), 2),  # psi = t^0.5 up to 1
    NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5, 1.0, 4.0)),
    NormSpec.intersection_max(NormSpec.lp(2), NormSpec.lorentz(3, 1)),
], ids=["mp-loc", "weak-marc-capped", "max"])
def test_an_exact_fundamental_index_fails_the_boyd_conditions(spec):
    # no closed Boyd index, but the exact fundamental index 1/2 bounds it
    # from below: (ix) fails from p = 2 on and (c-iv) above it
    def statuses(p):
        rep = density_criteria_report(spec, p, complete_space=True)
        return [rep.conditions[cid].status for cid in ("ix", "c-iv")]

    assert spec.boyd_alpha_exact() is None
    assert statuses(3.0) == ["false", "false"]
    assert statuses(2.0) == ["false", "inconclusive"]
    assert statuses(1.5) == ["inconclusive", "inconclusive"]


def test_a_grid_fundamental_index_leaves_the_boyd_conditions_open():
    # the index of a power-log shape is a grid estimate: it decides nothing
    rep = density_criteria_report(
        NormSpec.marcinkiewicz(FundamentalFn.power_log(0.7, 1.0)), 3.0, complete_space=True)
    assert [rep.conditions[cid].status for cid in ("ix", "c-iv")] == ["inconclusive"] * 2


def test_power_log_index_one_over_p_fails_iv_and_vii():
    # Lambda over t^(1/2) |log t| at p = 2: B and ||m_phi||_2 diverge, so
    # neither (iv) nor (vii) certifies the density verdict
    rep = density_criteria_report(NormSpec.lambda_phi(FundamentalFn.power_log(0.5, 1.0)), 2)
    assert rep.conditions["iv"].certificate["B"] == INF
    assert rep.conditions["vii"].certificate["m_phi_Lp"] == INF
    assert [rep.conditions[cid].status for cid in ("iv", "vii")] == ["false", "false"]
    assert rep.density_verdict is False


def test_criteria_implications_hold():
    rng = np.random.default_rng(1)
    specs = []
    for p0 in (1.5, 2.0, 3.0):
        for q0 in (1.0, 2.0, 4.0):
            specs.append(NormSpec.lorentz(p0, q0))
    specs += [NormSpec.lp(2), NormSpec.lp(1),
              NormSpec.marcinkiewicz(FundamentalFn.power(0.5)),
              NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.25))]
    from rikit.maximal import IMPLICATIONS

    for spec in specs:
        for p in (1.0, 1.5, 2.0, 4.0):
            for complete in (False, True):
                rep = density_criteria_report(spec, p=p, complete_space=complete)
                conds = rep.conditions
                for a, b in IMPLICATIONS:
                    if a in conds and b in conds and conds[a].is_true:
                        assert conds[b].is_true, (spec.describe(), p, a, b)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_criteria_constant_shape_near_zero(p):
    # the fundamental function of L^inf is 1, constant near 0: (v) and (vi)
    # hold with the witness q = max(2p, 2)
    rep = density_criteria_report(NormSpec.lp(INF), p)
    for cid in ("v", "vi"):
        verdict = rep.conditions[cid]
        assert (verdict.status, verdict.note) == ("true", "constant shape near zero")
        assert verdict.certificate == {"witness_q": max(2.0 * p, 2.0)}


def test_criteria_p1_always_true_for_ac_ri():
    for spec in (NormSpec.lp(3), NormSpec.lorentz(2, 1),
                 NormSpec.lambda_phi(FundamentalFn.power(0.5))):
        rep = density_criteria_report(spec, p=1)
        assert rep.conditions["i"].is_true
        assert rep.density_verdict


def test_criteria_incoherence_raises_typed_error(monkeypatch):
    # (v) holds for L^2 at p = 1, so a forced-false (iv) breaks (v) => (iv)
    monkeypatch.setattr(maximal, "criterion_B", lambda *args: math.inf)
    with pytest.raises(InvariantViolated, match="coherence"):
        density_criteria_report(NormSpec.lp(2), p=1)


@pytest.mark.parametrize("alpha", [0.51, 0.53, 0.55, 0.57])
def test_power_log_index_estimate_certifies_nothing(alpha):
    # the grid Zippin estimate under-reads the index of these shapes
    # (0.496 against 0.55 for power_log(0.55, 1)), and concavity on a grid
    # window misses the convexity of phi^q near 0, so neither may certify
    # a condition that the exact (iv) and (vii) contradict
    for beta in (0.8, 1.0, 1.2):
        spec = NormSpec.marcinkiewicz_p(FundamentalFn.power_log(alpha, beta), 2.0)
        rep = density_criteria_report(spec, p=2, complete_space=True)
        for cid in ("v", "vi", "viii", "c-i", "c-ii", "c-iii"):
            assert rep.conditions[cid].status == "inconclusive", (alpha, beta, cid)
    assert not zippin_upper(FundamentalFn.power_log(alpha, 1.0)).beta_exact


def test_psi_majorant_criteria_consistency():
    # M^p_loc fundamental function: criteria run on the majorant shape
    phi = FundamentalFn.power(0.25)
    spec = NormSpec.marcinkiewicz_p(phi, 2)
    rep = density_criteria_report(spec, p=2)
    assert rep.ac_norm is False  # Marcinkiewicz-type norm


def test_criteria_intersection_max_space():
    # max(L^q, L^s) norms with q <= p < s: the shape near zero is the
    # steeper-at-zero power t^{1/s}, so the supremum condition holds and
    # the report is coherent (this exercises branch selection in pieces
    # of max shapes near the origin)
    from rikit.spaces import _MaxPhi

    phi = _MaxPhi([FundamentalFn.power(2.0 / 3.0), FundamentalFn.power(0.25)])
    assert criterion_B(phi, 2, 1.0) == pytest.approx(2.0, rel=1e-9)
    spec = NormSpec.intersection_max(NormSpec.lp(1.5), NormSpec.lp(4))
    rep = density_criteria_report(spec, p=2)
    assert rep.conditions["iv"].is_true
    assert rep.conditions["v"].is_true
    assert rep.density_verdict


# -- golden index reports ---------------------------------------------------------

INDEX_GOLDEN = Path(__file__).resolve().parent / "golden" / "indices_reports.json"
_POWER = FundamentalFn.power(0.6)
_REPORT_SHAPES = {f"powerlog({a},{b})": FundamentalFn.power_log(a, b)
                  for a in (0.3, 0.5, 0.7) for b in (0.5, 1.0)}

# the benchmark's 21 index specs, then one each through the weak-type supremum,
# the Orlicz fundamental and the windowed M^p supremum
INDEX_SPECS = {
    "lorentz(3,2)": NormSpec.lorentz(3.0, 2.0),
    "marc_p(power(0.6),2)": NormSpec.marcinkiewicz_p(_POWER, 2.0),
    "lambda(powerlog(0.5,1.0))": NormSpec.lambda_phi(FundamentalFn.power_log(0.5, 1.0)),
    **{f"marc({k})": NormSpec.marcinkiewicz(phi) for k, phi in _REPORT_SHAPES.items()},
    **{f"marc_p({k},{q})": NormSpec.marcinkiewicz_p(phi, q)
       for k, phi in _REPORT_SHAPES.items() for q in (2.0, 3.0)},
    "weak_marc(powerlog(0.4,1))":
        NormSpec.weak_marcinkiewicz(FundamentalFn.power_log(0.4, 1)),
    "orlicz([1,2],[1,4])": NormSpec.orlicz_lux(OrliczN([1, 2], [1, 4])),
    "marc_p_loc(power(0.75),2)": NormSpec.marcinkiewicz_p_loc(FundamentalFn.power(0.75), 2),
}


def index_report_dict(name):
    return json.loads(json.dumps(indices_report(INDEX_SPECS[name]).to_dict()))


@pytest.mark.parametrize("name", list(INDEX_SPECS))
def test_indices_reports_match_golden(name):
    # recorded before the sup-type norms lost their per-point loops; the M^p
    # entries since psi is built from phi's pieces; h_samples, alpha_lower and
    # the note since the indicators give the Boyd lower bounds
    golden = json.loads(INDEX_GOLDEN.read_text())
    assert set(INDEX_SPECS) == set(golden)
    assert index_report_dict(name) == golden[name]
