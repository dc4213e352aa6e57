"""Maximal operators, indices, and boundedness criteria."""

import math

import numpy as np
import pytest

import rikit.maximal as maximal
from rikit.errors import InvariantViolated, ZeroFunction
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
from rikit.rearrange import GridFn, WeightedSamples, decreasing_rearrangement
from rikit.spaces import (
    FundamentalFn,
    NormSpec,
    _dyadic_integral,
    _MaxPhi,
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


def test_boyd_closed_forms():
    assert boyd_upper_lowerbound(NormSpec.lp(2)).alpha_lower == pytest.approx(0.5)
    assert boyd_upper_lowerbound(NormSpec.lorentz(4, 2)).alpha_lower == pytest.approx(0.25)
    rep = boyd_upper_lowerbound(NormSpec.lp(2))
    assert rep.alpha_exact and not rep.lower_bound_only


def test_boyd_candidate_lower_bound_weak_marc():
    spec = NormSpec.weak_marcinkiewicz(FundamentalFn.sampled([1.0], [1.0]))
    cands = [GridFn([0.0, 1.0], [1.0])]
    rep = boyd_upper_lowerbound(spec, candidates=cands, s_grid=[2.0, 8.0])
    assert rep.lower_bound_only
    # h(s) >= phi(s)/phi(1) is capped here; ratios must still be >= 1
    for s, h in rep.h_samples:
        assert h >= 1.0 - 1e-12


def test_boyd_rejects_zero_candidates():
    spec = NormSpec.weak_marcinkiewicz(FundamentalFn.sampled([1.0], [1.0]))
    with pytest.raises(ValueError):
        boyd_upper_lowerbound(spec, candidates=[GridFn([0.0, 1.0], [0.0])])


def test_index_report_invariants():
    # 1 <= k(s) <= h(s) <= s on shared s values
    for spec in (NormSpec.lp(2), NormSpec.lorentz(3, 1)):
        rep = indices_report(spec, s_grid=[2.0, 16.0, 256.0])
        for (s, k), (s2, h) in zip(rep.k_samples, rep.h_samples):
            assert s == s2
            assert 1.0 - 1e-12 <= k <= h + 1e-12 <= s + 1e-12


# -- criterion B and m_phi ----------------------------------------------------------------


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
    psi_majorant_phi(FundamentalFn.power_log(0.55, 1.0), 2.0,
                     np.geomspace(1e-8, 1.0, 48)),
    _MaxPhi([FundamentalFn.power(0.3), FundamentalFn.power(0.6, 2.0)]),
], ids=["powerlog", "powerlog-neg", "sampled", "sampled-kink", "psi", "max"])
def test_m_phi_matches_per_s_loop(phi):
    for s in (1e-9, 0.013, 0.37, 0.5, 0.99):
        assert m_phi(phi, s) == _m_phi_loop(phi, s)
    for p in (1.0, 1.5):
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
