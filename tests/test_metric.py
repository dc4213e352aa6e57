"""Metric-space programs against closed-form and grid-search oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rikit.metric as metric
import rikit.solver as solver
from rikit.errors import AllDegenerate
from rikit.metric import (
    MMS,
    TRIANGLE_SLACK,
    Curve,
    CurveFamily,
    capacity,
    grid_space,
    is_upper_gradient,
    line_integral,
    minimal_hajlasz,
    minimal_upper_gradient,
    modulus,
    parse_generator,
    path_space,
    poincare_ratio,
    single_curve_modulus_oracle,
    tree_space,
)
from rikit.regularize import check_hajlasz

INF = math.inf


def two_point_space():
    return MMS([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])


def random_space(rng, n=None):
    n = n or int(rng.integers(2, 7))
    pts = rng.uniform(0, 3, size=(n, 2))
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    # perturb duplicate points apart
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] == 0:
                d[i, j] = d[j, i] = 1e-3
    w = rng.uniform(0.2, 2.0, n)
    return MMS(d, w)


def grid_search_min(objective, bounds, step=1e-2, refine=3):
    """Exhaustive grid search with local refinement (the small-instance oracle).

    ``objective`` maps an (N, d) array of points to N values (inf where
    infeasible)."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    best_x, best_v = None, INF
    h = step
    for _ in range(refine + 1):
        axes = [np.arange(l, u + h / 2, h) for l, u in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = objective(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_v, best_x = float(vals[k]), pts[k]
        lo = np.maximum(lo, best_x - 2 * h)
        hi = np.minimum(hi, best_x + 2 * h)
        h /= 10.0
    return best_v, best_x


# -- line integrals and upper gradients ----------------------------------------


def test_line_integral_constant():
    s = path_space(4)
    c = Curve((0, 1, 2, 3))
    g = np.full(4, 2.0)
    assert line_integral(s, g, c) == pytest.approx(2.0 * c.length(s))
    assert line_integral(s, np.zeros(4), c) == 0.0


def test_line_integral_trapezoid_rule():
    d = np.array([[0, 1, 3.0], [1, 0, 2.0], [3.0, 2.0, 0]])
    s = MMS(d, np.ones(3))
    c = Curve((0, 1, 2))
    g = np.array([0.0, 1.0, 0.0])
    assert line_integral(s, g, c) == pytest.approx(1 * 0.5 + 2 * 0.5)


def test_upper_gradient_verdicts():
    s = two_point_space()
    fam = CurveFamily([Curve((0, 1))])
    assert is_upper_gradient(s, [5.0, 5.0], [0.0, 0.0], fam).ok
    v = is_upper_gradient(s, [0.0, 1.0], [1.0, 1.0], fam)
    assert v.ok
    v = is_upper_gradient(s, [0.0, 1.0], [0.9, 0.9], fam)
    assert not v.ok
    assert v.violation == pytest.approx(0.1)
    assert v.worst_curve.vertices == (0, 1)


def test_upper_gradient_inf_convention():
    s = two_point_space()
    fam = CurveFamily([Curve((0, 1))])
    u = np.array([INF, INF])
    assert not is_upper_gradient(s, u, [1.0, 1.0], fam).ok
    assert is_upper_gradient(s, u, [INF, 1.0], fam).ok


def _loop_integral(space, g, curve):
    """The trapezoid rule curve by curve, edge by edge: the reference."""
    total = 0.0
    for a, b in zip(curve.vertices[:-1], curve.vertices[1:]):
        d = space.dist[a, b]
        ga, gb = g[a], g[b]
        if not (math.isfinite(ga) and math.isfinite(gb)):
            if d > 0:
                return INF
            continue
        total += d * (ga + gb) / 2.0
    return total


def _loop_gaps(space, u, g, curves):
    """|u(start) - u(end)| minus the loop integral per curve; -inf where
    both sides are inf (the curve holds)."""
    gaps = []
    for c in curves:
        a, b = u[c.vertices[0]], u[c.vertices[-1]]
        lhs = abs(a - b) if math.isfinite(a) and math.isfinite(b) else INF
        rhs = _loop_integral(space, g, c)
        gaps.append(-INF if math.isinf(lhs) and math.isinf(rhs) else lhs - rhs)
    return gaps


def test_upper_gradient_witness_is_the_first_of_a_tie():
    # the loop keeps the first curve of largest violation: (2, 1), (1, 0)
    # and (1, 2) all miss by exactly 2 - 0.25, and the tie goes to the first
    s = path_space(3)
    fam = CurveFamily([Curve((0, 2)), Curve((2, 1)), Curve((1, 0)), Curve((1, 2))])
    v = is_upper_gradient(s, [0.0, 2.0, 0.0], [0.0, 0.5, 0.0], fam)
    assert (v.ok, v.worst_curve, v.violation) == (False, Curve((2, 1)), 1.75)


@st.composite
def curve_checks(draw):
    """A space (random points, or a path, grid or tree), a family of random
    curves, and u and g with inf markers."""
    kind = draw(st.sampled_from(("points", "path", "grid", "tree")))
    if kind == "points":
        space = random_space(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))
    elif kind == "path":
        space = path_space(draw(st.integers(2, 6)), draw(st.sampled_from((1.0, 0.5, 0.3))))
    elif kind == "grid":
        space = grid_space(draw(st.integers(1, 3)), draw(st.integers(2, 3)))
    else:
        space = tree_space(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    n = space.n
    curves = []
    for _ in range(draw(st.integers(0, 8))):
        v = [draw(st.integers(0, n - 1))]
        for step in draw(st.lists(st.integers(1, n - 1), min_size=1, max_size=5)):
            v.append((v[-1] + step) % n)  # consecutive vertices stay distinct
        curves.append(Curve(tuple(v)))
    value = st.one_of(st.sampled_from((0.0, 0.5, 1.0, 2.0)), st.floats(0.0, 10.0))
    u = draw(st.lists(st.one_of(value, value.map(lambda x: -x), st.sampled_from((INF, -INF))),
                      min_size=n, max_size=n))
    g = draw(st.lists(st.one_of(value, st.just(INF)), min_size=n, max_size=n))
    return space, CurveFamily(curves), np.array(u), np.array(g)


@settings(max_examples=300, deadline=None)
@given(curve_checks())
def test_upper_gradient_check_matches_the_per_curve_loop(check):
    # the check reads the program rows: each curve's integral, and so the
    # verdict, its witness and its violation, are those of the loop
    space, curves, u, g = check
    for c in curves:
        want, got = _loop_integral(space, g, c), line_integral(space, g, c)
        assert got == want if math.isinf(want) else got == pytest.approx(want, rel=1e-12)
    gaps = _loop_gaps(space, u, g, curves)
    worst = max(gaps, default=0.0)
    scale = 1.0 + float(np.max(np.abs(u[np.isfinite(u)]), initial=0.0))
    verdict = is_upper_gradient(space, u, g, curves)
    assert verdict.ok == (not worst > 1e-10 * scale)
    if verdict.ok:
        assert verdict.worst_curve is None and verdict.violation == 0.0
        return
    assert verdict.violation == pytest.approx(worst, rel=1e-12)
    # the witness is the loop's, the first curve of largest violation; a tie
    # within rounding between distinct curves may go to any of them
    want = next(c for c, gap in zip(curves, gaps) if gap == worst)
    near = {c.vertices for c, gap in zip(curves, gaps) if gap >= worst * (1 - 1e-12)}
    assert verdict.worst_curve == want if len(near) == 1 else verdict.worst_curve.vertices in near


# -- modulus ------------------------------------------------------------------


def test_modulus_empty_family():
    s = two_point_space()
    res = modulus(s, CurveFamily.empty(), 2)
    assert res.optimum == 0.0
    assert np.all(res.minimizer == 0)


def test_modulus_single_curve_matches_kkt_oracle():
    rng = np.random.default_rng(100)
    for _ in range(100):
        s = random_space(rng)
        n = s.n
        k = int(rng.integers(2, min(n, 4) + 1))
        verts = tuple(rng.permutation(n)[:k])
        curve = Curve(verts)
        p = float(rng.uniform(1.2, 4.0))
        oracle_opt, oracle_rho = single_curve_modulus_oracle(s, curve, p)
        res = modulus(s, CurveFamily([curve]), p)
        assert res.optimum == pytest.approx(oracle_opt, rel=1e-6)
        assert np.allclose(res.minimizer, oracle_rho, atol=1e-5)


def test_modulus_two_point_p2():
    # single edge, d=1, unit weights: rho = (1, 1), optimum 2... trapezoid
    # coefficients are (1/2, 1/2), so KKT gives rho_i = w_i-proportional
    s = two_point_space()
    res = modulus(s, CurveFamily([Curve((0, 1))]), 2)
    opt, rho = single_curve_modulus_oracle(s, Curve((0, 1)), 2)
    assert res.optimum == pytest.approx(opt, rel=1e-9)
    # by symmetry both entries agree and satisfy the constraint with equality
    assert res.minimizer[0] == pytest.approx(res.minimizer[1], rel=1e-6)
    assert (res.minimizer[0] + res.minimizer[1]) / 2 == pytest.approx(1.0, abs=1e-7)


def test_modulus_monotone_in_family():
    rng = np.random.default_rng(7)
    for _ in range(100):
        s = random_space(rng, 5)
        all_curves = [Curve((i, j)) for i in range(5) for j in range(5) if i != j]
        rng.shuffle(all_curves)
        k = int(rng.integers(1, len(all_curves)))
        small = CurveFamily(all_curves[:k])
        big = CurveFamily(all_curves[: k + int(rng.integers(1, 4))])
        p = float(rng.uniform(1.0, 3.0))
        m1 = modulus(s, small, p).optimum
        m2 = modulus(s, big, p).optimum
        assert m1 <= m2 + 1e-7


def test_modulus_disjoint_union_additive():
    rng = np.random.default_rng(31)
    s1 = random_space(rng, 3)
    # two copies at large mutual distance
    n = s1.n
    big = np.full((2 * n, 2 * n), 100.0)
    big[:n, :n] = s1.dist
    big[n:, n:] = s1.dist
    np.fill_diagonal(big, 0.0)
    s2 = MMS(big, np.concatenate((s1.weights, s1.weights)))
    c = Curve((0, 1, 2))
    c_shift = Curve((n, n + 1, n + 2))
    p = 2.5
    single = modulus(s1, CurveFamily([c]), p).optimum
    double = modulus(s2, CurveFamily([c, c_shift]), p).optimum
    assert double == pytest.approx(2 * single, rel=1e-9)


def test_modulus_scaling_covariance():
    rng = np.random.default_rng(55)
    for _ in range(20):
        s = random_space(rng, 4)
        scale = float(rng.uniform(0.5, 3.0))
        s2 = MMS(s.dist * scale, s.weights)
        curves = CurveFamily([Curve((0, 1, 2)), Curve((1, 3))])
        p = float(rng.uniform(1.0, 3.0))
        m1 = modulus(s, curves, p).optimum
        m2 = modulus(s2, curves, p).optimum
        assert m2 == pytest.approx(m1 * scale ** -p, rel=1e-6)


def test_modulus_p1_vertex_solution():
    s = path_space(3)
    res = modulus(s, CurveFamily([Curve((0, 1, 2))]), 1)
    assert res.certificate.get("vertex")
    coef = np.array([0.5, 1.0, 0.5])
    assert res.optimum == pytest.approx(
        min(1.0 / coef[i] * s.weights[i] for i in range(3)), rel=1e-9
    )


# -- minimal upper gradients -----------------------------------------------------


def test_minimal_gradient_constant_u():
    s = path_space(4)
    res = minimal_upper_gradient(s, np.full(4, 3.3), CurveFamily.pairs(s), 2)
    assert res.optimum == 0.0


def test_minimal_gradient_two_point():
    s = two_point_space()
    res = minimal_upper_gradient(s, [0.0, 1.0], CurveFamily([Curve((0, 1))]), 2)
    assert np.allclose(res.minimizer, [1.0, 1.0], atol=1e-6)
    assert res.optimum == pytest.approx(math.sqrt(2.0), rel=1e-7)


def test_minimal_gradient_grid_oracle_path3():
    s = path_space(3)
    u = np.array([0.0, 1.0, 2.0])
    fam = CurveFamily.path_subpaths(3)
    p = 2.0
    res = minimal_upper_gradient(s, u, fam, p)

    def feasible_cost(g):
        infeasible = np.zeros(len(g), dtype=bool)
        for c in fam:
            # the trapezoid edge rule of line_integral, on every point at once
            integral = 0.0
            for a, b in zip(c.vertices[:-1], c.vertices[1:]):
                integral = integral + s.dist[a, b] * (g[:, a] + g[:, b]) / 2.0
            infeasible |= integral < abs(u[c.vertices[0]] - u[c.vertices[-1]]) - 1e-9
        cost = np.sum(s.weights * g ** p, axis=1) ** (1.0 / p)
        return np.where(infeasible, INF, cost)

    oracle, _ = grid_search_min(feasible_cost, [(0.0, 3.0)] * 3, step=5e-2)
    assert res.optimum == pytest.approx(oracle, abs=1e-4)


def test_minimal_gradient_empty_family_is_zero():
    rng = np.random.default_rng(2)
    s = random_space(rng, 5)
    u = rng.normal(size=5)
    res = minimal_upper_gradient(s, u, CurveFamily.empty(), 2)
    assert res.optimum == 0.0


@pytest.mark.parametrize("p", [1.0, 1.05, 2.0, 3.0])
def test_zero_programs_are_trivial_solves(p):
    # no rows to meet: the constraint-generation solver answers x = 0 with
    # a full certificate, the same for every program
    s = path_space(5)
    u = np.linspace(0.0, 2.0, 5)
    for res in (modulus(s, CurveFamily.empty(), p),
                minimal_upper_gradient(s, u, CurveFamily.empty(), p),
                minimal_hajlasz(s, np.full(5, 1.5), p)):
        assert res.optimum == 0.0
        assert np.array_equal(res.minimizer, np.zeros(5))
        assert res.certificate["kkt_residual"] == 0
        assert res.certificate["duality_gap"] == 0
        assert "note" not in res.certificate
        assert res.telemetry["stage"] == "trivial"


# -- Hajlasz gradients -------------------------------------------------------------


def test_hajlasz_constant():
    s = path_space(3)
    assert minimal_hajlasz(s, np.full(3, 1.0), 2).optimum == 0.0


def test_hajlasz_two_point_symmetric():
    s = two_point_space()
    res = minimal_hajlasz(s, [0.0, 1.0], 2)
    assert np.allclose(res.minimizer, [0.5, 0.5], atol=1e-7)
    assert res.optimum == pytest.approx(math.sqrt(0.5), rel=1e-7)


def test_hajlasz_three_point_grid_oracle():
    d = np.array([[0.0, 1.0, 2.5], [1.0, 0.0, 1.5], [2.5, 1.5, 0.0]])
    s = MMS(d, [0.5, 1.0, 2.0])
    u = np.array([0.0, 1.0, 3.0])
    p = 2.0
    res = minimal_hajlasz(s, u, p)

    def feasible_cost(h):
        infeasible = np.zeros(len(h), dtype=bool)
        for i in range(3):
            for j in range(i + 1, 3):
                infeasible |= d[i, j] * (h[:, i] + h[:, j]) < abs(u[i] - u[j]) - 1e-9
        cost = np.sum(s.weights * h ** p, axis=1) ** (1.0 / p)
        return np.where(infeasible, INF, cost)

    oracle, _ = grid_search_min(feasible_cost, [(0.0, 3.0)] * 3, step=5e-2)
    assert res.optimum == pytest.approx(oracle, abs=1e-4)


def test_twice_hajlasz_is_upper_gradient_on_pairs():
    # on a two-vertex curve the trapezoid integral is d * (h(x) + h(y))
    rng = np.random.default_rng(77)
    for _ in range(20):
        s = random_space(rng)
        u = rng.normal(size=s.n)
        res = minimal_hajlasz(s, u, 2)
        g = 2.0 * res.minimizer
        assert is_upper_gradient(s, u, g, CurveFamily.pairs(s), tol=1e-6).ok


@pytest.mark.parametrize("p", [1.05, 1.2, 2.0, 3.0])
@pytest.mark.parametrize("n", [8, 12])
def test_hajlasz_single_path_certified(n, p, monkeypatch):
    # seeded ramps on which L-BFGS-B alone misses tolerance in some
    # subsolves; dual Newton has to carry every one to the certificate
    subsolve = solver.solve_separable_power
    results = []

    def recording_subsolve(*args):
        res = subsolve(*args)
        results.append(res)
        return res

    monkeypatch.setattr(solver, "solve_separable_power", recording_subsolve)
    rng = np.random.default_rng(n)
    u = np.cumsum(rng.uniform(0.1, 1.0, n))
    s = path_space(n)
    res = minimal_hajlasz(s, u, p)
    assert results and all(r.telemetry["stage"] == "newton" for r in results)
    certs = [r.certificate for r in results]
    # the subsolve residual includes the relative duality gap
    assert all(c["kkt_residual"] <= res.tolerance for c in certs)
    assert all(isinstance(c["iterations"], int) for c in certs)
    assert res.certificate["kkt_residual"] <= res.tolerance
    check_hajlasz(s, u, res.minimizer)


@pytest.mark.parametrize("p", [1.05, 2.0, 3.0])
def test_constraint_generation_certificate_carries_gap_and_counts(p, monkeypatch):
    subsolve = solver.solve_separable_power
    iterations = []

    def recording_subsolve(*args):
        res = subsolve(*args)
        iterations.append(res.certificate["iterations"])
        return res

    monkeypatch.setattr(solver, "solve_separable_power", recording_subsolve)
    # 81 points: the fewest whose program is past the size rule and takes rounds
    u = np.cumsum(np.random.default_rng(12).uniform(0.1, 1.0, 81))
    res = minimal_hajlasz(path_space(81), u, p)
    cert = res.certificate
    assert cert["rounds"] == len(iterations) >= 2
    assert cert["iterations"] == sum(iterations)
    # the gap is in units of the power objective sum w h^p = optimum^p
    assert 0.0 <= cert["duality_gap"] <= res.tolerance * (1.0 + res.optimum ** p)


# -- capacity ------------------------------------------------------------------------


def test_capacity_empty_family_exact():
    rng = np.random.default_rng(8)
    for _ in range(10):
        s = random_space(rng)
        k = int(rng.integers(1, s.n + 1))
        fixed = sorted(rng.permutation(s.n)[:k])
        p = float(rng.uniform(1.0, 4.0))
        res = capacity(s, fixed, CurveFamily.empty(), p)
        expect = float(np.sum(s.weights[fixed])) ** (1.0 / p)
        assert res.optimum == expect  # exact, no solver involved


def test_capacity_all_points_constant_one():
    s = path_space(4)
    res = capacity(s, range(4), CurveFamily.pairs(s), 2)
    # u = 1 everywhere is feasible with g = 0
    assert res.optimum == pytest.approx(s.total_measure ** 0.5, rel=1e-6)


def test_capacity_two_point_grid_oracle():
    s = two_point_space()
    fam = CurveFamily([Curve((0, 1))])
    p = 2.0
    res = capacity(s, [0], fam, p)

    def objective(x):
        u1, g0, g1 = x.T
        infeasible = (g0 + g1) / 2 < np.abs(1.0 - u1) - 1e-9
        vals = (1.0 + u1 ** p) ** (1 / p) + (g0 ** p + g1 ** p) ** (1 / p)
        return np.where(infeasible, INF, vals)

    oracle, _ = grid_search_min(objective, [(0.0, 1.0), (0.0, 1.5), (0.0, 1.5)],
                                step=2e-2)
    assert res.optimum == pytest.approx(oracle, abs=1e-4)


def test_capacity_p1_two_point():
    s = two_point_space()
    fam = CurveFamily([Curve((0, 1))])
    res = capacity(s, [0], fam, 1)

    def objective(x):
        u1, g0, g1 = x.T
        return np.where((g0 + g1) / 2 < np.abs(1.0 - u1) - 1e-9, INF,
                        1.0 + u1 + g0 + g1)

    oracle, _ = grid_search_min(objective, [(0.0, 1.0)] * 3, step=2e-2)
    assert res.optimum == pytest.approx(oracle, abs=1e-4)


# -- Poincare ratio ---------------------------------------------------------------------


def test_poincare_constant_degenerate():
    s = path_space(3)
    with pytest.raises(AllDegenerate):
        poincare_ratio(s, np.ones(3), np.zeros(3), 1)


def test_poincare_two_point_half():
    s = two_point_space()
    ratio, ball = poincare_ratio(s, [0.0, 1.0], [1.0, 1.0], 1, lam=1.0)
    assert ratio == pytest.approx(0.5)
    assert len(ball.members) == 2


def test_poincare_path_stable_under_refinement():
    vals = []
    for n in (8, 16, 32):
        s = path_space(n, spacing=1.0 / (n - 1))
        u = np.linspace(0.0, 1.0, n)
        fam = CurveFamily.path_edges(n)
        g = minimal_upper_gradient(s, u, fam, 2).minimizer
        ratio, _ = poincare_ratio(s, u, g, 2)
        vals.append(ratio)
    assert max(vals) / min(vals) < 1.6
    assert all(math.isfinite(v) and v > 0 for v in vals)


# -- generators and validation -------------------------------------------------------------


def test_generators_shapes():
    assert path_space(5).n == 5
    assert grid_space(3, 4).n == 12
    t = tree_space(2, 3)
    assert t.n == 1 + 2 + 4 + 8
    assert parse_generator("path:6").n == 6
    assert parse_generator("grid:2,3").n == 6
    assert parse_generator("tree:2,2").n == 7


def test_tree_distances():
    t = tree_space(2, 2)
    # children of root are 1 and 2; their children 3,4 and 5,6
    assert t.dist[1, 2] == 2.0
    assert t.dist[3, 4] == 2.0
    assert t.dist[3, 5] == 4.0
    assert t.dist[0, 3] == 2.0


def _grid_dist_loop(rows, cols):
    coords = [(r, c) for r in range(rows) for c in range(cols)]
    d = np.zeros((len(coords), len(coords)))
    for i, (r1, c1) in enumerate(coords):
        for j, (r2, c2) in enumerate(coords):
            d[i, j] = abs(r1 - r2) + abs(c1 - c2)
    return d


def _tree_dist_loop(branching, depth):
    parents, frontier = [-1], [0]
    for _ in range(depth):
        nxt = []
        for node in frontier:
            for _ in range(branching):
                parents.append(node)
                nxt.append(len(parents) - 1)
        frontier = nxt
    n = len(parents)

    def ancestors(i):
        out = []
        while i != -1:
            out.append(i)
            i = parents[i]
        return out

    anc = [ancestors(i) for i in range(n)]
    anc_sets = [dict((a, k) for k, a in enumerate(a_list)) for a_list in anc]
    dist = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            for k, a in enumerate(anc[i]):
                if a in anc_sets[j]:
                    dist[i, j] = dist[j, i] = k + anc_sets[j][a]
                    break
    return dist


@pytest.mark.parametrize("rows,cols", [(1, 1), (1, 5), (4, 1), (3, 4), (6, 6)])
def test_grid_space_matches_loop(rows, cols):
    d = grid_space(rows, cols).dist
    assert d.dtype == np.float64
    assert np.array_equal(d, _grid_dist_loop(rows, cols))


@pytest.mark.parametrize("branching,depth", [(0, 3), (1, 0), (1, 4), (2, 3),
                                             (3, 2), (4, 3)])
def test_tree_space_matches_loop(branching, depth):
    d = tree_space(branching, depth).dist
    assert d.dtype == np.float64
    assert np.array_equal(d, _tree_dist_loop(branching, depth))


@pytest.mark.parametrize("branching", range(5))
@pytest.mark.parametrize("depth", range(6))
def test_tree_space_matches_networkx(branching, depth):
    # networkx numbers a balanced tree breadth first, as tree_space does
    nx = pytest.importorskip("networkx")
    tree = nx.balanced_tree(branching, depth)
    lengths = dict(nx.all_pairs_shortest_path_length(tree))
    n = tree.number_of_nodes()
    want = np.array([[lengths[i][j] for j in range(n)] for i in range(n)], dtype=float)
    assert np.array_equal(tree_space(branching, depth).dist, want)


def _path_dist_loop(n, spacing):
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = abs(i - j) * float(spacing)
    return d


@pytest.mark.parametrize("n,spacing", [
    (n, h) for n in (0, 1, 2, 5, 17, 60)
    for h in (1.0, 0.1, 1.0 / 3.0) + ((1.0 / (n - 1),) if n > 1 else ())])
def test_path_space_matches_loop(n, spacing):
    d = path_space(n, spacing=spacing).dist
    assert d.dtype == np.float64
    assert np.array_equal(d, _path_dist_loop(n, spacing))


@pytest.mark.parametrize("spacing", [0.0, -1.0, math.inf, math.nan])
def test_path_space_rejects_bad_spacing(spacing):
    with pytest.raises(ValueError):
        path_space(4, spacing=spacing)


def _triangle_loop_ok(d):
    """The O(n^3) triangle check of MMS(dist, weights), kept as the oracle."""
    return not any(np.any(d > d[:, [k]] + d[[k], :] + TRIANGLE_SLACK)
                   for k in range(len(d)))


GENERATED = [
    (path_space, (60,)), (path_space, (60, 0.1)), (path_space, (60, 1.0 / 3.0)),
    (path_space, (60, 1.0 / 59.0)), (path_space, (2,)), (grid_space, (6, 10)),
    (grid_space, (1, 7)), (grid_space, (2, 2)), (tree_space, (0, 3)),
    (tree_space, (1, 4)), (tree_space, (2, 4)), (tree_space, (3, 3)),
]


@pytest.mark.parametrize("make,args", GENERATED)
def test_generated_spaces_pass_triangle_loop(make, args):
    assert _triangle_loop_ok(make(*args).dist)


def _generated(monkeypatch, make, *args):
    """The integer matrix, weights and edges a generator certifies."""
    seen = []
    graph = MMS._graph.__func__

    def recording(cls, dist, weights, edges):
        seen.append((np.array(dist, dtype=float), np.array(weights, dtype=float), edges))
        return graph(cls, dist, weights, edges)

    monkeypatch.setattr(MMS, "_graph", classmethod(recording))
    make(*args)
    monkeypatch.undo()
    (got,) = seen
    return got


# Every edge of these graphs is continued in a straight line by another edge,
# so lengthening it changes a distance.  (In a 2 x k grid or a 2-point path
# the lengthened edge gives another shortest-path metric.)
@pytest.mark.parametrize("make,args", [
    (path_space, (3,)), (path_space, (6, 0.1)), (grid_space, (3, 3)),
    (grid_space, (3, 4)), (grid_space, (1, 5)), (tree_space, (1, 3)),
    (tree_space, (2, 2)), (tree_space, (3, 2)),
])
def test_certificate_rejects_perturbed_pair(monkeypatch, make, args):
    d, w, edges = _generated(monkeypatch, make, *args)
    assert np.array_equal(MMS._graph(d, w, edges).dist, d)
    i, j = np.triu_indices(len(d), 1)
    for a, b in zip(i, j):
        for delta in (-1.0, 1.0):
            bad = d.copy()
            bad[a, b] += delta
            bad[b, a] += delta
            with pytest.raises(ValueError):
                MMS._graph(bad, w, edges)


def test_certificate_needs_integers_and_neighbours():
    d = np.abs(np.subtract.outer(np.arange(4), np.arange(4))).astype(float)
    edges = (np.arange(3), np.arange(1, 4))
    with pytest.raises(ValueError, match="integers"):
        MMS._graph(d * 0.5, np.ones(4), edges)
    with pytest.raises(ValueError, match="neighbour"):
        MMS._graph(d, np.ones(4), (edges[0][:2], edges[1][:2]))
    with pytest.raises(ValueError, match="distinct"):
        MMS._graph(d, np.ones(4), (np.arange(4), np.arange(4)))


@st.composite
def weighted_graphs(draw):
    """A random connected graph with integer edge lengths and its Floyd-Warshall
    matrix: a random spanning tree plus a few random edges."""
    n = draw(st.integers(2, 9))
    a = [draw(st.integers(0, k - 1)) for k in range(1, n)]
    b = list(range(1, n))
    for x, y in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=2 * n)):
        if x != y:
            a.append(x)
            b.append(y)
    lengths = draw(st.lists(st.integers(1, 4), min_size=len(a), max_size=len(a)))
    d = np.full((n, n), INF)
    np.fill_diagonal(d, 0.0)
    for x, y, ell in zip(a, b, lengths):
        d[x, y] = d[y, x] = min(d[x, y], ell)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return d, (np.asarray(a), np.asarray(b))


@settings(max_examples=200, deadline=None)
@given(weighted_graphs())
def test_certificate_accepts_floyd_warshall(graph):
    d, edges = graph
    s = MMS._graph(d, np.ones(len(d)), edges)
    assert np.array_equal(s.dist, d)


@settings(max_examples=300, deadline=None)
@given(weighted_graphs(), st.data())
def test_certificate_accepts_only_metrics(graph, data):
    d, edges = graph
    n = len(d)
    bad = d.copy()
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if i != j:
            bad[i, j] = bad[j, i] = data.draw(st.integers(1, 8))
    try:
        s = MMS._graph(bad, np.ones(n), edges)
    except ValueError:
        return
    assert _triangle_loop_ok(s.dist)


@settings(max_examples=300, deadline=None)
@given(weighted_graphs(), st.data())
def test_blocked_triangle_check_rejects_what_the_per_k_loop_rejects(graph, data):
    # one planted pair d[i, j] = d[j, i]: an arbitrary length, or the sum
    # d[i, k] + d[k, j] at the slack or one ulp past it, where d[k, i] may sit
    # up to 5e-13 off d[i, k], inside the symmetry tolerance
    d, _ = graph
    n = len(d)
    bad = d * data.draw(st.sampled_from((1.0, 0.1, 1.0 / 3.0)))
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    if i != k:
        bad[k, i] += data.draw(st.sampled_from((0.0, 5e-13, -5e-13)))
    if i != j:
        edge = bad[i, k] + bad[k, j] + TRIANGLE_SLACK
        bad[i, j] = bad[j, i] = data.draw(st.one_of(
            st.integers(1, 8).map(float), st.just(edge), st.just(np.nextafter(edge, INF))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "BLOCK", data.draw(st.sampled_from((1, 8, 50, metric.BLOCK))))
        try:
            MMS(bad, np.ones(n))
        except ValueError as err:
            assert str(err) == "triangle inequality violated"
            assert not _triangle_loop_ok(bad)
        else:
            assert _triangle_loop_ok(bad)


def _hajlasz_rows_loop(space, u):
    n = space.n
    rows, b = [], []
    for i in range(n):
        for j in range(i + 1, n):
            drop = abs(u[i] - u[j])
            if drop <= 0:
                continue
            row = np.zeros(n)
            row[i] = row[j] = space.dist[i, j]
            rows.append(row)
            b.append(drop)
    return np.stack(rows), np.asarray(b)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("space,u", [
    (path_space(7), np.sin(np.arange(7) / 3.0)),
    (path_space(6, 0.1), [0.0, 1.0, 1.0, 0.0, 2.0, 1.0]),
    (grid_space(3, 3), np.arange(9.0) % 4),
    (grid_space(2, 4), [1.0, 1.0, 1.0, 2.0, 2.0, 0.0, 0.0, 0.0]),
    (path_space(5), [0.0, INF, INF, 1.0, -INF]),  # inf - inf keeps its nan row
])
def test_hajlasz_rows_match_loop(space, u, monkeypatch):
    seen = []

    def recording(weights, rows, b, p, tol):
        seen.append((rows, b))
        raise RuntimeError("recorded")

    monkeypatch.setattr(metric, "constraint_generation", recording)
    with pytest.raises(RuntimeError, match="recorded"):
        minimal_hajlasz(space, u, 2)
    (rows, b), = seen
    want_rows, want_b = _hajlasz_rows_loop(space, np.asarray(u, dtype=float))
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(b, want_b, equal_nan=True)


def test_mms_validation():
    with pytest.raises(ValueError):
        MMS([[0.0, 1.0], [2.0, 0.0]], [1.0, 1.0])  # asymmetric
    with pytest.raises(ValueError):
        MMS([[0.0, 0.0], [0.0, 0.0]], [1.0, 1.0])  # zero off-diagonal
    with pytest.raises(ValueError):
        MMS([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]], [1.0] * 3)
    with pytest.raises(ValueError):
        MMS([[0.0, 1.0], [1.0, 0.0]], [1.0, 0.0])  # nonpositive weight


def test_mms_roundtrip():
    s = path_space(3)
    s2 = MMS.from_dict(s.to_dict())
    assert np.array_equal(s.dist, s2.dist)
    assert np.array_equal(s.weights, s2.weights)


def loop_edge_weights(space, curve):
    """One curve's trapezoid coefficients, one edge at a time: the oracle."""
    v = curve.vertices
    coef = np.zeros(space.n)
    for a, b in zip(v[:-1], v[1:]):
        half = 0.5 * space.dist[a, b]
        coef[a] += half
        coef[b] += half
    return coef


@pytest.mark.parametrize("space, curves", [
    (path_space(7, 0.3), CurveFamily.path_subpaths(7)),
    (grid_space(3, 3), CurveFamily.pairs(grid_space(3, 3))),
    (grid_space(4, 4), CurveFamily([Curve(tuple(r * 4 + c for c in range(4))) for r in range(4)]
                                   + [Curve(tuple(r * 4 + c for r in range(4)))
                                      for c in range(4)])),
    (tree_space(2, 3), CurveFamily([Curve((0, 1, 0, 2, 5, 2)), Curve((3, 1, 4))])),
    (path_space(4), CurveFamily.empty()),
], ids=["path_subpaths", "pairs", "grid_crossings", "revisits", "empty"])
def test_family_rows_match_the_per_curve_loop(space, curves):
    rows = metric._family_rows(space, curves)
    want = np.reshape([loop_edge_weights(space, c) for c in curves], (len(curves), space.n))
    assert rows.shape == (len(curves), space.n)
    assert np.array_equal(rows, want)
