"""Norm zoo: closed-form examples, embedding constants, and majorants."""

import json
import math

import numpy as np
import pytest

from rikit.errors import DegenerateRatio, NotQuasiconcave, UnsupportedCombination
from rikit.rearrange import GridFn, WeightedSamples, decreasing_rearrangement, indicator_gridfn
from rikit.spaces import (
    FundamentalFn,
    NormSpec,
    OrliczN,
    PsiMajorantPhi,
    fundamental_function,
    is_quasiconcave,
    least_concave_majorant,
    lorentz_embedding_bound,
    lorentz_embedding_ratio,
    norm,
    psi_majorant_phi,
)

INF = math.inf


def indicator(a=1.0):
    return indicator_gridfn(a)


def random_decreasing(rng, n=None, span=4.0):
    n = n or int(rng.integers(1, 12))
    vals = np.sort(rng.uniform(0.05, span, n))[::-1]
    widths = rng.uniform(0.05, 1.5, n)
    return GridFn(np.concatenate(([0.0], np.cumsum(widths))), vals)


def random_quasiconcave_phi(rng):
    if rng.random() < 0.5:
        return FundamentalFn.power(rng.uniform(0.1, 1.0))
    # increasing concave piecewise-linear samples through the origin
    n = int(rng.integers(2, 7))
    ts = np.cumsum(rng.uniform(0.1, 1.0, n))
    slopes = np.sort(rng.uniform(0.1, 3.0, n))[::-1]
    vals = np.cumsum(slopes * np.diff(np.concatenate(([0.0], ts))))
    return FundamentalFn.sampled(ts, vals)


# -- Lp / Lorentz closed forms ---------------------------------------------------


def test_lp_norm_indicator():
    assert norm(indicator(1.0), NormSpec.lp(2)) == pytest.approx(1.0)
    assert norm(indicator(4.0), NormSpec.lp(2)) == pytest.approx(2.0)


def test_lp_inf_marker_on_unbounded_profile():
    # dyadic sampling of t^{-1/2} with the unbounded head carried as inf
    edges = np.concatenate(([0.0], np.geomspace(2 ** -20, 1.0, 21)))
    vals = np.concatenate(([INF], edges[1:-1] ** -0.5))
    f = GridFn(edges, vals)
    assert norm(f, NormSpec.lp(2)) == INF


def test_lorentz_indicator_fundamental():
    # ||chi_(0,a]||_{L^{p,q}} = a^{1/p}
    for (p, q, a) in [(3, 1, 2.0), (2, 2, 0.5), (2.5, 4, 1.7)]:
        got = norm(indicator(a), NormSpec.lorentz(p, q))
        assert got == pytest.approx(a ** (1.0 / p), rel=1e-12)


def test_weak_marcinkiewicz_indicator_power_phi():
    phi = FundamentalFn.power(1.0 / 3)
    got = norm(indicator(1.0), NormSpec.weak_marcinkiewicz(phi))
    assert got == pytest.approx(1.0)


def test_lorentz_pq_quadrature_oracle():
    from scipy.integrate import quad

    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_decreasing(rng)
        p, q = rng.uniform(1, 4), rng.uniform(1, 4)
        total = 0.0
        for (a, b, v) in f.csv_rows():
            cell, _ = quad(lambda t: (v * t ** (1.0 / p)) ** q / t, a, b)
            total += cell
        oracle = ((q / p) * total) ** (1.0 / q)
        # closed-form norm uses sum v^q d(t^{q/p}); equals (q/p) integral form
        got = norm(f, NormSpec.lorentz(p, q))
        assert got == pytest.approx(oracle, rel=1e-8)


def test_lp_matches_lorentz_pp():
    rng = np.random.default_rng(8)
    for _ in range(10):
        f = random_decreasing(rng)
        p = rng.uniform(1, 5)
        assert norm(f, NormSpec.lp(p)) == pytest.approx(
            norm(f, NormSpec.lorentz(p, p)), rel=1e-12
        )


# -- rearrangement invariance and lattice property --------------------------------


def test_rearrangement_invariance_bit_identical():
    rng = np.random.default_rng(4)
    specs = [
        NormSpec.lp(2),
        NormSpec.lorentz(3, 1),
        NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.lambda_phi(FundamentalFn.power(0.5)),
    ]
    for _ in range(20):
        n = 10
        vals = rng.normal(size=n)
        w = rng.choice([0.25, 0.5, 1.0, 2.0], size=n)
        u = WeightedSamples(vals, w)
        perm = rng.permutation(n)
        v = WeightedSamples(vals[perm], w[perm])
        for spec in specs:
            assert norm(u, spec) == norm(v, spec)


def test_lattice_property():
    rng = np.random.default_rng(6)
    specs = [
        NormSpec.lp(1.5),
        NormSpec.lorentz(2, 1),
        NormSpec.lorentz_weak(2),
        NormSpec.marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.25)),
        NormSpec.lambda_phi(FundamentalFn.power(0.5)),
        NormSpec.lambda_q(FundamentalFn.power(0.5), 2),
        NormSpec.marcinkiewicz_p(FundamentalFn.power(0.25), 2),
        NormSpec.marcinkiewicz_p_loc(FundamentalFn.power(0.25), 2),
        NormSpec.orlicz_lux(OrliczN([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])),
        NormSpec.intersection_max(NormSpec.lp(1.5), NormSpec.lp(3)),
    ]
    for _ in range(15):
        n = 8
        w = rng.uniform(0.2, 2.0, n)
        a = rng.normal(size=n)
        scale = rng.uniform(0, 1, n)
        u = WeightedSamples(a * scale, w)
        v = WeightedSamples(a, w)
        for spec in specs:
            nu, nv = norm(u, spec), norm(v, spec)
            assert nu <= nv * (1 + 1e-10) + 1e-12, spec.family


# -- embedding chain (norm-1 embeddings) -------------------------------------------


def test_embedding_chain_weak_marc_to_lambda():
    # ||u||_{M*_phi} <= ||u||_{M_phi} <= ||u||_X <= ||u||_{Lambda_phi}
    rng = np.random.default_rng(10)
    for _ in range(25):
        n = 9
        u = WeightedSamples(rng.normal(size=n), rng.uniform(0.2, 1.5, n))
        for (spec, p) in [(NormSpec.lp(2), 2.0), (NormSpec.lorentz(2, 1.5), 2.0),
                          (NormSpec.lp(3), 3.0), (NormSpec.lorentz(3, 2), 3.0)]:
            phi = FundamentalFn.power(1.0 / p)
            n_weak = norm(u, NormSpec.weak_marcinkiewicz(phi))
            n_marc = norm(u, NormSpec.marcinkiewicz(phi))
            n_x = norm(u, spec)
            n_lam = norm(u, NormSpec.lambda_phi(phi))
            tol = 1 + 1e-10
            assert n_weak <= n_marc * tol
            assert n_marc <= n_x * tol
            assert n_x <= n_lam * tol


# -- Lambda_phi ---------------------------------------------------------------------


def test_lambda_phi_indicator_is_phi():
    phi = FundamentalFn.power(0.5)
    for a in (0.3, 1.0, 4.0):
        assert norm(indicator(a), NormSpec.lambda_phi(phi)) == pytest.approx(
            a ** 0.5, rel=1e-12
        )


def test_lambda_phi_linf_head():
    # phi with a jump at zero weights the sup norm
    phi = FundamentalFn.power(0.0, coeff=2.0)
    f = GridFn([0.0, 1.0, 2.0], [3.0, 1.0])
    assert norm(f, NormSpec.lambda_phi(phi)) == pytest.approx(2.0 * 3.0)


# -- inter-Lorentz embedding constant ---------------------------------------------


def test_lorentz_embedding_bound_values():
    assert lorentz_embedding_bound(1, 2) == pytest.approx(1.0)
    assert lorentz_embedding_bound(2, 4) == pytest.approx(2 ** 0.25)


def test_lorentz_embedding_ratio_randomized():
    rng = np.random.default_rng(12)
    for _ in range(200):
        u = random_decreasing(rng)
        phi = random_quasiconcave_phi(rng)
        q = rng.uniform(1, 3)
        p = q + rng.uniform(0.25, 3)
        r = lorentz_embedding_ratio(u, phi, q, p)
        assert r.ratio <= r.bound * (1 + 1e-10)


def test_lorentz_embedding_degenerate():
    phi = FundamentalFn.power(0.5)
    zero = WeightedSamples([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DegenerateRatio):
        lorentz_embedding_ratio(zero, phi, 1, 2)


def test_lorentz_embedding_with_an_infinite_low_norm():
    # a positive tail: both norms diverge
    with pytest.raises(DegenerateRatio, match="both Lorentz norms diverge"):
        lorentz_embedding_ratio(GridFn([0.0, 1.0], [1.0], 0.5), FundamentalFn.power(0.5), 1, 2)
    # over t^1e-308 the Lambda^1 weight of (0, 1/2) is 1e308, so 1.85 times
    # it passes the float range, while the Lambda^2 term 1.85^2 * 5e307 stays
    # in it: the ratio reads 0
    r = lorentz_embedding_ratio(GridFn([0.0, 0.5], [1.85]), FundamentalFn.power(1e-308), 1, 2)
    assert (r.ratio, r.norm_low) == (0.0, INF)
    assert r.norm_high == pytest.approx(math.sqrt(1.85 ** 2 * 5e307), rel=1e-12)


def test_lambda_phi_norm_diverges_where_its_terms_do():
    # an infinite first value over phi(0+) > 0: the atom at 0 is inf
    assert norm(GridFn([0.0, 1.0], [INF]), NormSpec.lambda_phi(FundamentalFn.power(0.0))) == INF
    # a positive tail over an unbounded phi
    assert norm(GridFn([0.0, 1.0], [2.0], 0.5), NormSpec.lambda_phi(FundamentalFn.power(0.5))) == INF


# -- fundamental functions ---------------------------------------------------------


def test_fundamental_closed_forms():
    assert fundamental_function(NormSpec.lp(2), 4.0) == pytest.approx(2.0)
    assert fundamental_function(NormSpec.lorentz(2, 1), 4.0) == pytest.approx(2.0)
    orl = OrliczN([1.0, 2.0, 4.0], [1.0, 4.0, 16.0])
    t = 0.5
    expected = 1.0 / orl.inverse(1.0 / t)
    assert fundamental_function(NormSpec.orlicz_lux(orl), t) == pytest.approx(
        float(expected)
    )


def test_fundamental_matches_indicator_norm():
    rng = np.random.default_rng(14)
    specs = [
        NormSpec.lp(2),
        NormSpec.lorentz(3, 2),
        NormSpec.marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.lambda_phi(FundamentalFn.power(0.5)),
        NormSpec.orlicz_lux(OrliczN([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])),
    ]
    for spec in specs:
        for t in rng.uniform(0.1, 5.0, 4):
            direct = norm(indicator_gridfn(t), spec)
            assert fundamental_function(spec, t) == pytest.approx(direct, rel=1e-9)


def test_orlicz_lux_scaling():
    # Luxemburg norm is homogeneous
    orl = OrliczN([1.0, 2.0, 3.0], [1.0, 4.0, 9.0])
    spec = NormSpec.orlicz_lux(orl)
    u = WeightedSamples([1.0, 2.0, 0.5], [0.5, 1.0, 2.0])
    v = WeightedSamples([3.0, 6.0, 1.5], [0.5, 1.0, 2.0])
    assert norm(v, spec) == pytest.approx(3 * norm(u, spec), rel=1e-10)


# -- quasi-concavity ------------------------------------------------------------------


def test_quasiconcave_power_cases():
    phi = FundamentalFn.power(1.0 / 3)
    assert is_quasiconcave(phi, power=2, window=(1e-6, 1.0)).ok
    verdict = is_quasiconcave(phi, power=4, window=(1e-6, 1.0))
    assert not verdict.ok
    assert verdict.witness is not None


def test_quasiconcave_linear_boundary():
    phi = FundamentalFn.power(1.0, coeff=3.0)
    assert is_quasiconcave(phi, power=1, window=(1e-6, 1.0)).ok


def test_quasiconcave_prechecks():
    # no edge of the GridFn in the window: it is checked at the window's end
    assert is_quasiconcave(GridFn([0.0, 10.0], [1.0])).ok
    v = is_quasiconcave(GridFn([0.0, 0.5, 2.0], [INF, 1.0]))
    assert (v.ok, v.witness, v.reason) == (False, (0.5, 0.5), "not finite on window")
    v = is_quasiconcave(FundamentalFn.sampled([1.0, 2.0], [0.0, 0.0]))
    assert (v.ok, v.witness, v.reason) == (False, (1e-8, 1e-8),
                                           "not strictly positive on window")


def _quasiconcave_loop(f, power, window, rel_tol=1e-10):
    # the reference: a scan pair by pair, after is_quasiconcave's prechecks
    lo, hi = window
    if isinstance(f, GridFn):
        ts = f.edges[(f.edges > lo) & (f.edges <= hi)]
        vals = np.asarray(f.value_at(ts), dtype=float)
    else:
        ts = f.eval_grid(lo, hi)
        vals = np.asarray(f(ts), dtype=float)
    g = vals ** power
    scale = float(np.max(g))
    for i in range(len(ts) - 1):
        if g[i + 1] < g[i] - rel_tol * scale:
            return (False, (float(ts[i]), float(ts[i + 1])), "power not increasing")
    ratios = g / ts
    for i in range(len(ts) - 1):
        if ratios[i + 1] > ratios[i] * (1.0 + rel_tol) + rel_tol * scale / ts[i + 1]:
            return (False, (float(ts[i]), float(ts[i + 1])),
                    "power over t not decreasing")
    return (True, None, "")


def test_quasiconcave_matches_pairwise_loop():
    rng = np.random.default_rng(21)
    cases = [(FundamentalFn.power(1.0 / 3), p, (1e-6, 1.0)) for p in (1, 2, 3, 4)]
    cases.append((FundamentalFn.power_log(0.5, 1.0), 2.0, (1e-8, 1.0)))
    for _ in range(40):
        cases.append((random_quasiconcave_phi(rng), float(rng.uniform(1, 4)),
                      (1e-6, 2.0)))
        n = int(rng.integers(2, 10))
        edges = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 1.0, n))))
        f = GridFn(edges, rng.uniform(0.1, 3.0, n))
        cases.append((f, float(rng.uniform(1, 3)), (0.0, float(edges[-1]))))
    outcomes = set()
    for f, power, window in cases:
        v = is_quasiconcave(f, power=power, window=window)
        assert (v.ok, v.witness, v.reason) == _quasiconcave_loop(f, power, window)
        outcomes.add(v.reason)
    assert outcomes == {"", "power not increasing", "power over t not decreasing"}


# -- least concave majorant ------------------------------------------------------------


def test_majorant_fixed_point_for_concave():
    # concave node sequence: sqrt samples
    ts = np.linspace(0.2, 3.0, 12)
    f = GridFn(np.concatenate(([0.0], ts)), np.sqrt(ts))
    out = least_concave_majorant(f)
    assert np.allclose(out.values, f.values, rtol=1e-12)


def test_majorant_min_t_one():
    ts = np.linspace(0.1, 3.0, 30)
    f = GridFn(np.concatenate(([0.0], ts)), np.minimum(ts, 1.0))
    out = least_concave_majorant(f)
    assert np.allclose(out.values, f.values, rtol=1e-12)


def test_majorant_sandwich_max_power():
    # f = max(t, sqrt(t)) on (0, 4]: quasi-concave, not concave
    ts = np.geomspace(0.01, 4.0, 60)
    vals = np.maximum(ts, np.sqrt(ts))
    f = GridFn(np.concatenate(([0.0], ts)), vals)
    out = least_concave_majorant(f)
    # convex-hull oracle over the same nodes
    pts = np.concatenate(([0.0], ts)), np.concatenate(([0.0], vals))
    assert np.all(out.values >= f.values - 1e-12)
    assert np.all(out.values <= 2 * f.values + 1e-12)
    # hull is concave across nodes: slopes non-increasing
    slopes = np.diff(np.concatenate(([0.0], out.values))) / np.diff(
        np.concatenate(([0.0], ts))
    )
    assert np.all(np.diff(slopes) <= 1e-9)


def test_majorant_rejects_non_quasiconcave():
    f = GridFn([0.0, 1.0, 2.0], [1.0, 3.0])  # f/t increasing at the jump
    with pytest.raises(NotQuasiconcave):
        least_concave_majorant(f)


# -- psi majorant ------------------------------------------------------------------------


def test_psi_equals_phi_when_power_quasiconcave():
    # phi = t^{1/q}, q > p: phi^p quasi-concave, so psi == phi
    phi = FundamentalFn.power(1.0 / 3)
    p = 2.0
    psi = psi_majorant_phi(phi, p)
    ts = np.geomspace(1e-6, 1.0, 50)
    assert np.allclose(np.asarray(psi(ts)), np.asarray(phi(ts)), rtol=1e-12)


def test_psi_max_power_shape():
    # phi = t^{1/q}, q < p: psi(t) = max(t^{1/p}, t^{1/q}) = t^{1/p} on (0,1]
    q, p = 2.0, 4.0
    phi = FundamentalFn.power(1.0 / q)
    psi = psi_majorant_phi(phi, p)
    ts = np.geomspace(1e-6, 1.0, 50)
    assert np.allclose(np.asarray(psi(ts)), ts ** (1.0 / p), rtol=1e-9)


def test_psi_constant_phi():
    # constant phi: psi(t) = c t^{1/p} sup_{t<=s<=1} s^{-1/p} = c for t in (0,1]
    phi = FundamentalFn.power(0.0, coeff=3.0)
    p = 2.0
    psi = psi_majorant_phi(phi, p)
    ts = np.geomspace(1e-8, 1.0, 30)
    assert np.allclose(np.asarray(psi(ts)), 3.0, rtol=1e-12)


def test_psi_over_a_shape_without_a_peak_rule_raises():
    # the Lambda^q fundamental of a power-log shape is generic and names no
    # peaks: a supremum over its kinks alone could read low without warning
    lam = NormSpec.lambda_q(FundamentalFn.power_log(0.5, 1.0), 2).fundamental_phi()
    with pytest.raises(UnsupportedCombination, match="no peak rule"):
        PsiMajorantPhi(lam, 2.0)


def test_psi_power_quasiconcave_and_norm_equality():
    rng = np.random.default_rng(20)
    for _ in range(40):
        phi = random_quasiconcave_phi(rng)
        p = rng.uniform(1.0, 4.0)
        psi = psi_majorant_phi(phi, p)
        u = random_decreasing(rng)
        for maker in (NormSpec.marcinkiewicz_p, NormSpec.marcinkiewicz_p_loc):
            n_phi = norm(u, maker(phi, p))
            n_psi = norm(u, maker(psi, p))
            if math.isinf(n_phi) or math.isinf(n_psi):
                assert n_phi == n_psi
            else:
                assert n_psi == pytest.approx(n_phi, rel=1e-9)
        # psi^p is quasi-concave on the grid
        assert is_quasiconcave(psi, power=p, window=(1e-6, 0.999)).ok


# -- truncation density (absolutely continuous families) ----------------------------------


def test_truncation_gap_decreases_for_ac_norms():
    rng = np.random.default_rng(30)
    u = WeightedSamples(rng.normal(size=12) * 3, rng.uniform(0.2, 1.0, 12))
    specs = [NormSpec.lp(2), NormSpec.lorentz(2, 1),
             NormSpec.lambda_phi(FundamentalFn.power(0.5)),
             NormSpec.marcinkiewicz(FundamentalFn.power(1.0))]
    sigmas = np.geomspace(0.1, 1.2 * float(np.max(np.abs(u.values))), 12)
    for spec in specs:
        assert spec.absolutely_continuous
        gaps = []
        for s in sigmas:
            trunc = np.clip(u.values, -s, s)
            gaps.append(norm(WeightedSamples(u.values - trunc, u.weights), spec))
        assert all(b <= a + 1e-12 for a, b in zip(gaps[:-1], gaps[1:]))
        assert gaps[-1] == pytest.approx(0.0, abs=1e-12)


def test_spec_serialization_roundtrip():
    specs = [
        NormSpec.lp(2),
        NormSpec.lorentz(3, 1),
        NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.marcinkiewicz_p(FundamentalFn.sampled([1.0, 2.0], [1.0, 1.5]), 2),
        NormSpec.orlicz_lux(OrliczN([1.0, 2.0], [1.0, 4.0])),
        NormSpec.intersection_max(NormSpec.lp(1), NormSpec.lp(4)),
    ]
    rng = np.random.default_rng(1)
    u = WeightedSamples(rng.normal(size=6), rng.uniform(0.2, 1.0, 6))
    for spec in specs:
        back = NormSpec.from_dict(spec.to_dict())
        assert norm(u, back) == pytest.approx(norm(u, spec), rel=1e-12)


# the issue's example: a cap dropped by to_dict changes the norm of CAP_U
CAP_U = WeightedSamples([3.0, 1.0, 0.5], [0.01, 0.02, 0.5])
CAPPED_SPECS = [
    NormSpec.lambda_phi(FundamentalFn.power_log(0.4, 1.0, cap=0.02)),
    NormSpec.lambda_phi(FundamentalFn.orlicz_inverse(OrliczN([1.0, 2.0], [1.0, 4.0]),
                                                     cap=0.5)),
]


@pytest.mark.parametrize("spec", CAPPED_SPECS, ids=["powerlog", "orlicz-inverse"])
def test_finite_cap_survives_to_dict(spec):
    d = spec.to_dict()
    assert d["phi"]["cap"] == spec.phi.cap
    back = NormSpec.from_dict(json.loads(json.dumps(d)))
    assert back.to_dict() == d
    assert norm(CAP_U, back) == norm(CAP_U, spec)


def test_infinite_cap_is_not_written():
    for phi in (FundamentalFn.power_log(0.4, 1.0),
                FundamentalFn.orlicz_inverse(OrliczN([1.0, 2.0], [1.0, 4.0]))):
        d = NormSpec.lambda_phi(phi).to_dict()
        assert "cap" not in d["phi"]
        assert NormSpec.from_dict(d).phi.cap == INF


@pytest.mark.parametrize("make", [
    lambda cap: FundamentalFn.power(0.5, 1.0, cap),
    lambda cap: FundamentalFn.power_log(0.4, 1.0, 1.0, cap),
    lambda cap: FundamentalFn.orlicz_inverse(OrliczN([1.0, 2.0], [1.0, 4.0]), cap),
    lambda cap: FundamentalFn.sampled([1.0, 2.0], [1.0, 1.5], cap),
], ids=["power", "powerlog", "orlicz-inverse", "sampled"])
def test_cap_must_be_positive(make):
    for cap in (0.0, -1.0, -INF, math.nan):
        with pytest.raises(ValueError):
            make(cap)
    assert make(0.5).cap == 0.5


def test_lambda_q_head_cells_below_the_log_floor_stay_finite():
    # phi is no longer floored at t = 1e-300: a head cell of width
    # x <= 1e-290 weighs ~x log(x)^2 and must not turn the norm into inf or
    # raise.  The power-log head integrates in closed form, so the values lie
    # at or above norm(1 on (0, 1)), as the true ones do; the log-axis
    # quadrature over (x, 1/e) once read them ~5e-5 below it.
    spec = NormSpec.lambda_q(FundamentalFn.power_log(0.5, 1), 2)
    base = norm(GridFn([0.0, 1.0], [1.0]), spec)
    vals = [norm(GridFn([0.0, x, 1.0], [2.0, 1.0]), spec)
            for x in (1e-280, 1e-290, 1e-298, 1e-300, 1e-310, 5e-324)]
    assert all(math.isfinite(v) for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert min(vals) >= base
    assert vals == pytest.approx([base] * len(vals), rel=1e-12)


def test_dyadic_refinement_stops_before_a_subnormal_end_underflows():
    from rikit.spaces import _power_integral_rows
    # psi is t^(1/2) below 1/e, a generic head: the refinement integrates it
    phi = PsiMajorantPhi(FundamentalFn.power_log(0.5, 0.0), 2.0)
    assert _power_integral_rows(phi, [0.0], [5e-324], 1, 0)[0] == 0.0
    # int_0^x t^(1/2) dt/t = 2 sqrt(x), the piece below the last level a tail
    assert _power_integral_rows(phi, [0.0], [1e-310], 1, 0)[0] == pytest.approx(
        2.0 * math.sqrt(1e-310), rel=1e-7)
    spec = NormSpec.lambda_q(phi, 1)
    assert norm(GridFn([0.0, 5e-324, 1.0], [2.0, 1.0]), spec) == pytest.approx(
        norm(GridFn([0.0, 1.0], [1.0]), spec), rel=1e-8)
    # the power-log head itself has its closed form, down to the last subnormal
    head = FundamentalFn.power_log(0.5, 0.0)
    for x in (5e-324, 1e-310):
        assert _power_integral_rows(head, [0.0], [x], 1, 0)[0] == pytest.approx(
            2.0 * math.sqrt(x), rel=1e-15)
