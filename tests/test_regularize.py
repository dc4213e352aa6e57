"""Truncation machinery and the constructive Lipschitz regularization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_sweeps import space_and_fn

from rikit.demo import marcinkiewicz_gap_tables, radial_profile
from rikit.errors import (
    BudgetExhausted,
    HajlaszViolated,
    InvariantViolated,
    NotLipschitzOnSubset,
)
from rikit.metric import (
    Curve,
    CurveFamily,
    MMS,
    minimal_hajlasz,
    minimal_upper_gradient,
    path_space,
)
from rikit.regularize import (
    LipTruncResult,
    _check_lip_trunc,
    check_hajlasz,
    glue_gradient,
    lipschitz_bound,
    lipschitz_truncation,
    mcshane_extend,
    sharp_maximal,
    truncate,
    truncation_convergence_report,
)
from rikit.spaces import FundamentalFn, NormSpec, norm
from rikit.rearrange import WeightedSamples

INF = math.inf


# -- truncation -------------------------------------------------------------------


def test_truncate_noop_below_level():
    u = np.array([1.0, -2.0, 0.5])
    res = truncate(u, 4.0)
    assert np.array_equal(res.u_sigma, u)
    assert res.superlevel == ()


def test_truncate_clamps():
    res = truncate(np.array([3.0, -5.0]), 4.0)
    assert np.array_equal(res.u_sigma, [3.0, -4.0])
    assert res.superlevel == (1,)


def test_truncate_spike_gap_formula():
    s = path_space(4)
    u = np.array([0.0, 9.0, 0.0, 0.0])
    sigma = 4.0
    p = 2.0
    res = truncate(u, sigma, s, NormSpec.lp(p))
    expect = ((9.0 - sigma) ** p * s.weights[1]) ** (1.0 / p)
    assert res.norm_gap == pytest.approx(expect, rel=1e-12)


def test_truncate_gap_dominated_by_restriction():
    # ||u - u_sigma|| <= ||u chi_{|u|>sigma}|| for every family
    rng = np.random.default_rng(3)
    s = path_space(8)
    specs = [NormSpec.lp(2), NormSpec.lorentz(2, 1),
             NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5)),
             NormSpec.marcinkiewicz(FundamentalFn.power(0.5))]
    for _ in range(20):
        u = rng.normal(size=8) * 4
        for sigma in (0.5, 1.0, 3.0):
            for spec in specs:
                res = truncate(u, sigma, s, spec)
                over = np.where(np.abs(u) > sigma, u, 0.0)
                dom = norm(WeightedSamples(over, s.weights), spec)
                assert res.norm_gap <= dom * (1 + 1e-10) + 1e-12


# -- glueing ---------------------------------------------------------------------


def test_glue_untouched_when_level_missed():
    s = path_space(3)
    u = np.array([0.0, 1.0, 2.0])
    g = np.array([1.0, 1.0, 1.0])
    fam = CurveFamily.path_subpaths(3)
    new_g, verdict, closed = glue_gradient(s, u, g, 7.7, fam)
    assert np.array_equal(new_g, g)
    assert verdict.ok
    assert closed


def test_glue_constant_function():
    s = path_space(3)
    u = np.zeros(3)
    g = np.ones(3)
    new_g, verdict, _ = glue_gradient(s, u, g, 0.0, CurveFamily.path_subpaths(3))
    assert np.array_equal(new_g, np.zeros(3))
    assert verdict.ok


def test_glue_three_point_plateau():
    # gradient supported off the plateau: zeroing the plateau keeps it valid
    s = path_space(3)
    u = np.array([0.0, 1.0, 1.0])
    g = np.array([2.0, 0.0, 0.0])
    fam = CurveFamily.path_subpaths(3)
    assert minimal_upper_gradient(s, u, fam, 2).optimum <= norm_of(s, g, 2)
    new_g, verdict, closed = glue_gradient(s, u, g, 1.0, fam)
    assert closed
    assert verdict.ok
    assert new_g[1] == 0.0 and new_g[2] == 0.0


def test_glue_reports_violation_for_boundary_mass():
    # the trapezoid rule charges half of each edge to its endpoints, so a
    # gradient whose mass sits on the level set can fail after glueing;
    # the verdict reports this honestly
    s = path_space(3)
    u = np.array([0.0, 1.0, 1.0])
    g = minimal_upper_gradient(s, u, CurveFamily.path_subpaths(3), 2).minimizer
    _, verdict, closed = glue_gradient(s, u, g, 1.0,
                                       CurveFamily.path_subpaths(3))
    assert closed
    assert not verdict.ok
    assert verdict.worst_curve is not None


def norm_of(space, g, p):
    return float(np.sum(space.weights * np.asarray(g) ** p)) ** (1.0 / p)


def test_glue_warns_without_subcurves():
    s = path_space(3)
    fam = CurveFamily([Curve((0, 1, 2))])
    u = np.array([0.0, 1.0, 1.0])
    g = np.array([1.0, 1.0, 0.0])
    _, _, closed = glue_gradient(s, u, g, 1.0, fam)
    assert not closed


# -- McShane extension --------------------------------------------------------------


def test_mcshane_identity_on_full_set():
    s = path_space(4)
    v = np.array([0.0, 1.0, 1.5, 2.0])
    w = mcshane_extend(s, range(4), v, 1.0)
    assert np.allclose(w, v)


def test_mcshane_single_generator_cone():
    s = path_space(4)
    v = np.array([2.0, 0.0, 0.0, 0.0])
    w = mcshane_extend(s, [0], v, 0.5)
    assert np.allclose(w, 2.0 + 0.5 * s.dist[0])


def test_mcshane_two_generators_min_of_cones():
    d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    s = MMS(d, np.ones(3))
    v = np.array([0.0, 0.0, 1.0])
    L = 1.0
    w = mcshane_extend(s, [1, 2], v, L)
    assert w[1] == 0.0 and w[2] == 1.0
    assert w[0] == pytest.approx(min(0.0 + 1.0, 1.0 + 1.0))
    assert lipschitz_bound(s, w) <= L + 1e-12


def test_mcshane_rejects_bad_subset():
    s = path_space(3)
    v = np.array([0.0, 5.0, 0.0])
    with pytest.raises(NotLipschitzOnSubset) as err:
        mcshane_extend(s, [0, 1], v, 1.0)
    assert err.value.witness in ((0, 1), (1, 0))


def test_mcshane_lipschitz_everywhere_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 10))
        s = path_space(n)
        subset = sorted(rng.permutation(n)[: int(rng.integers(1, n + 1))])
        raw = rng.normal(size=n) * 2
        L = max(lipschitz_bound(s, raw), 0.1) * 1.01
        w = mcshane_extend(s, subset, raw, L)
        assert lipschitz_bound(s, w) <= L * (1 + 1e-9)
        assert np.allclose(w[subset], raw[subset])


@settings(max_examples=200, deadline=None)
@given(space_and_fn(), st.data())
def test_mcshane_extend_properties(su, data):
    # path, grid, tree and tied shortest-path spaces, random subsets, and L
    # at or above the Lipschitz constant of v on the subset; the floor keeps
    # L d(x, y) well above the rounding of v(y) + L d(x, y)
    s, v = su
    subset = sorted(data.draw(st.sets(st.integers(0, s.n - 1), min_size=1)))
    i, j = np.triu_indices(len(subset), 1)
    a, b = np.asarray(subset)[i], np.asarray(subset)[j]
    lip = float(np.max(np.abs(v[a] - v[b]) / s.dist[a, b], initial=0.0))
    L = max(lip, 0.01) * data.draw(st.sampled_from((1.0, 1.5, 4.0)))
    w = mcshane_extend(s, subset, v, L)
    np.testing.assert_allclose(w[subset], v[subset], rtol=0.0, atol=1e-12)
    assert lipschitz_bound(s, w) <= L * (1 + 1e-9)


# -- sharp maximal function ------------------------------------------------------------


def test_sharp_maximal_constant_zero():
    s = path_space(5)
    assert np.allclose(sharp_maximal(s, np.full(5, 3.0)), 0.0)


def test_sharp_maximal_two_point_example():
    s = MMS([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    out = sharp_maximal(s, [0.0, 1.0])
    assert np.allclose(out, [0.5, 0.5])


def test_sharp_maximal_lipschitz_bound():
    rng = np.random.default_rng(30)
    from rikit.metric import grid_space

    s = grid_space(5, 6)
    for _ in range(10):
        u = rng.normal(size=s.n)
        L = lipschitz_bound(s, u)
        out = sharp_maximal(s, u)
        assert np.max(out) <= 2 * L + 1e-9


def test_sharp_maximal_hajlasz_constant_per_family():
    # c * sharp_maximal is a pair gradient with a per-family constant
    rng = np.random.default_rng(4)
    from rikit.metric import grid_space, tree_space

    for space, c in ((path_space(12), 3.0), (grid_space(4, 4), 4.0),
                     (tree_space(2, 3), 4.0)):
        for _ in range(10):
            u = rng.normal(size=space.n)
            sharp = sharp_maximal(space, u)
            check_hajlasz(space, u, c * sharp)


# -- Hajlasz checks ------------------------------------------------------------------------


def test_check_hajlasz_raises_with_witness():
    s = path_space(3)
    u = np.array([0.0, 5.0, 0.0])
    with pytest.raises(HajlaszViolated):
        check_hajlasz(s, u, np.zeros(3))


# -- Lipschitz truncation ----------------------------------------------------------------


def test_lip_trunc_trivial_case():
    s = path_space(5)
    u = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    h = minimal_hajlasz(s, u, 2).minimizer
    res = lipschitz_truncation(s, u, h, NormSpec.lp(2), CurveFamily.pairs(s),
                               eps=10.0)
    assert np.allclose(res.u_eps, u)
    assert res.exceptional == ()
    assert res.norm_gap == 0.0


def test_lip_trunc_spike_sweep():
    rng = np.random.default_rng(9)
    n = 20
    s = path_space(n)
    u = rng.uniform(0, 1, n)
    u[7] += 45.0
    h = minimal_hajlasz(s, u, 2).minimizer
    prev_set = None
    prev_sigma = None
    for eps in (0.5, 0.1, 0.02):
        res = lipschitz_truncation(s, u, h, NormSpec.lp(2),
                                   CurveFamily.pairs(s), eps)
        assert res.norm_gap < eps
        assert np.max(np.abs(res.u_eps)) <= res.sigma + 1e-9
        assert lipschitz_bound(s, res.u_eps) <= res.lipschitz_constant + 1e-9
        if prev_set is not None:
            # levels share one geometric grid, so shrinking eps can only
            # raise them and shrink the exceptional set
            assert set(res.exceptional) <= prev_set
            assert res.sigma >= prev_sigma
        prev_set = set(res.exceptional)
        prev_sigma = res.sigma


def test_lip_trunc_hajlasz_precondition():
    s = path_space(3)
    u = np.array([0.0, 5.0, 0.0])
    with pytest.raises(HajlaszViolated):
        lipschitz_truncation(s, u, np.zeros(3), NormSpec.lp(2),
                             CurveFamily.pairs(s), eps=0.5)


def test_lip_trunc_budget_exhausted_weak_marcinkiewicz():
    # the obstruction profile, rendered deep enough that max|u| exceeds the
    # 64-doubling scan budget: the weak norm of the restricted gradient
    # stays near 1, so no level within the budget passes the eta test
    prof = radial_profile(alpha=2.0, dim=3, grid=60, r_min=1e-40)
    check_hajlasz(prof.space, prof.values, prof.hajlasz)
    spec = NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5))
    with pytest.raises(BudgetExhausted) as err:
        lipschitz_truncation(prof.space, prof.values, prof.hajlasz, spec,
                             prof.curves, eps=0.5)
    assert err.value.trace
    assert err.value.stage in ("sigma0", "sigma")


def test_lip_trunc_same_profile_succeeds_in_lp():
    # the same shallow profile regularizes fine under an absolutely
    # continuous norm
    prof = radial_profile(alpha=2.0, dim=3, grid=40, r_min=1e-2)
    res = lipschitz_truncation(prof.space, prof.values, prof.hajlasz,
                               NormSpec.lp(2), prof.curves, eps=0.5)
    assert res.norm_gap < 0.5


@pytest.mark.parametrize("u_eps, exceptional", [
    ([0.0, 0.5, 1.0, 1.5], (0, 1, 2, 3)),   # |u_eps| above sigma
    ([0.0, 1.0, 0.0, 0.0], (0, 1, 2, 3)),   # not 2*sigma-Lipschitz
    ([0.0, 0.25, 0.5, 0.75], ()),           # differs from u off the set
])
def test_lip_trunc_invariants_raise_typed_error(u_eps, exceptional):
    s = path_space(4)
    u = np.array([0.0, 0.25, 0.5, 0.5])
    res = LipTruncResult(u_eps=np.array(u_eps), lipschitz_constant=0.5,
                         sigma=1.0, sigma0=1.0, exceptional=exceptional,
                         eta=0.1, norm_gap=0.0)
    with pytest.raises(InvariantViolated):
        _check_lip_trunc(s, u, res)


def test_lip_trunc_invariants_pass_on_valid_result():
    s = path_space(4)
    u = np.array([0.0, 0.25, 0.5, 0.5])
    res = LipTruncResult(u_eps=u.copy(), lipschitz_constant=0.5, sigma=1.0,
                         sigma0=1.0, exceptional=(), eta=0.1, norm_gap=0.0)
    _check_lip_trunc(s, u, res)


# -- convergence report ----------------------------------------------------------------------


def test_convergence_report_bounded_vanishes():
    s = path_space(6)
    u = np.linspace(0, 3, 6)
    fam = CurveFamily.path_edges(6)
    rows = truncation_convergence_report(s, u, fam, NormSpec.lp(2),
                                         [1.0, 2.0, 4.0, 8.0])
    assert rows[-1].fn_gap == 0.0
    assert rows[-1].grad_norm == 0.0
    gaps = [r.fn_gap for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(gaps[:-1], gaps[1:]))


def test_marcinkiewicz_gap_demo():
    weak_rows, lp_rows, prof = marcinkiewicz_gap_tables(
        alpha=2.0, dim=3, grid=120, steps=10)
    weak_col = [r.grad_norm for r in weak_rows]
    lp_col = [r.grad_norm for r in lp_rows]
    assert min(weak_col) >= 0.5 * weak_col[0] > 0
    assert min(lp_col) < 0.01 * lp_col[0]
    # gap columns are non-increasing for both tables
    for col in ([r.fn_gap for r in weak_rows], [r.fn_gap for r in lp_rows]):
        assert all(b <= a + 1e-10 for a, b in zip(col[:-1], col[1:]))
