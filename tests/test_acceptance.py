"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import math
import time

import numpy as np
import pytest

from rikit.demo import (
    criteria_sweep_preset,
    herz_riesz_preset,
    lip_trunc_sweep_preset,
    lorentz_embedding_preset,
    marcinkiewicz_gap_tables,
    random_decreasing_gridfn,
    random_quasiconcave_phi,
)
from rikit.maximal import (
    IMPLICATIONS,
    criterion_B,
    density_criteria_report,
    maximal_decreasing,
    zippin_upper,
)
from rikit.metric import (
    MMS,
    Curve,
    CurveFamily,
    capacity,
    minimal_hajlasz,
    minimal_upper_gradient,
    modulus,
    path_space,
    single_curve_modulus_oracle,
)
from rikit.rearrange import GridFn
from rikit.regularize import lipschitz_bound
from rikit.spaces import (
    FundamentalFn,
    NormSpec,
    is_quasiconcave,
    norm,
    psi_majorant_phi,
)

INF = math.inf


def report(num, text):
    print(f"ACCEPTANCE {num:02d} PASS: {text}")


# -- 1. inter-Lorentz embedding bound -----------------------------------------------


def test_criterion_01_lorentz_embedding():
    t0 = time.time()
    rows, violations = lorentz_embedding_preset(trials=10_000, seed=424242,
                                                q_hi=8.0)
    elapsed = time.time() - t0
    assert violations == 0
    assert elapsed < 60.0
    report(1, f"10^4 randomized embedding checks, 0 violations beyond 1e-10 "
              f"relative slack, {elapsed:.1f}s")


# -- 2. the majorant shape preserves the Marcinkiewicz-type norms --------------------


def test_criterion_02_psi_majorant_norms():
    rng = np.random.default_rng(515151)
    checked_equal_shape = 0
    for k in range(1000):
        phi = random_quasiconcave_phi(rng)
        p = float(rng.uniform(1.0, 4.0))
        u = random_decreasing_gridfn(rng)
        psi = psi_majorant_phi(phi, p)
        for maker in (NormSpec.marcinkiewicz_p, NormSpec.marcinkiewicz_p_loc):
            n_phi = norm(u, maker(phi, p))
            n_psi = norm(u, maker(psi, p))
            if math.isinf(n_phi) or math.isinf(n_psi):
                assert n_phi == n_psi
            else:
                assert n_psi == pytest.approx(n_phi, rel=1e-9)
        assert is_quasiconcave(psi, power=p, window=(1e-8, 1.0)).ok
        if is_quasiconcave(phi, power=p, window=(1e-8, 1.0)).ok:
            ts = np.geomspace(1e-8, 1.0, 64)
            pv = np.asarray(phi(ts), dtype=float)
            sv = np.asarray(psi(ts), dtype=float)
            assert np.allclose(sv, pv, rtol=1e-12)
            checked_equal_shape += 1
    assert checked_equal_shape > 50
    report(2, "10^3 random (phi, p, u): global and local norms agree to 1e-9; "
              "psi^p quasi-concave; psi == phi whenever phi^p is quasi-concave")


# -- 3. the weak-boundedness supremum closed form --------------------------------------


def test_criterion_03_criterion_b_closed_form():
    for (p, q) in [(1, 2), (1, 4), (2, 3), (2, 4)]:
        val = criterion_B(FundamentalFn.power(1.0 / q), p, 1.0)
        assert val == pytest.approx(q / (q - p), rel=0.01), (p, q)
    for (p, q) in [(2, 2), (3, 2), (2, 1)]:
        assert criterion_B(FundamentalFn.power(1.0 / q), p, 1.0) == INF
    report(3, "criterion B equals q/(q-p) within 1% on the four pairs; "
              "divergence flagged for q <= p")


# -- 4. sigma-independence of the weak norm of the maximal superlevel ------------------


def test_criterion_04_weak_superlevel_constant():
    for (p, q) in [(1.0, 2.0), (2.0, 4.0)]:
        edges = np.concatenate(([0.0], np.geomspace(1e-14, 1e4, 3600)))
        g = GridFn(edges, edges[1:] ** (-1.0 / q))
        spec = NormSpec.lorentz_weak(q)
        values = []
        for sigma in (1.0, 10.0, 100.0):
            lo, hi = 1e-13, 1e4
            for _ in range(200):
                mid = math.sqrt(lo * hi)
                if maximal_decreasing(g, p, mid) > sigma:
                    lo = mid
                else:
                    hi = mid
            t_sigma = math.sqrt(lo * hi)
            values.append(norm(GridFn([0.0, t_sigma], [sigma]), spec))
        spread = max(values) / min(values) - 1.0
        assert spread <= 0.01, (p, q, values)
        c_pq = (q / (q - p)) ** (1.0 / p)
        assert values[0] == pytest.approx(c_pq, rel=0.02)
    report(4, "||sigma chi_{M_p g > sigma}||_{L^{q,inf}} constant to 1% "
              "across sigma in {1, 10, 100} for both (p, q) pairs")


# -- 5. two-sided maximal comparison envelopes ------------------------------------------

RECORDED_ENVELOPES = {
    "path": (0.5, 3.0),
    "grid": (0.5, 3.0),
    "tree": (0.5, 3.0),
}


def test_criterion_05_herz_riesz_envelopes():
    env = herz_riesz_preset(p=1.0, seeds=100)
    for fam, rec in env.items():
        lo, hi = RECORDED_ENVELOPES[fam]
        assert rec["n"] <= 200
        assert rec["env_min"] >= lo > 0, fam
        assert rec["env_max"] <= hi, fam
        print(f"  envelope {fam}: [{rec['env_min']:.4f}, {rec['env_max']:.4f}]"
              f" width={rec['env_max'] - rec['env_min']:.4f} (logged)")
    report(5, "per-family recorded envelopes contain all ratios over 100 "
              "seeds with positive lower constants")


# -- 6. modulus programs against the one-constraint oracle --------------------------------


def _random_space(rng, n):
    pts = rng.uniform(0, 3, size=(n, 2))
    d = np.sqrt(np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1))
    for i in range(n):
        for j in range(i + 1, n):
            if d[i, j] == 0:
                d[i, j] = d[j, i] = 1e-3
    return MMS(d, rng.uniform(0.2, 2.0, n))


def test_criterion_06_modulus_oracle():
    rng = np.random.default_rng(606060)
    for _ in range(100):
        s = _random_space(rng, int(rng.integers(3, 7)))
        k = int(rng.integers(2, 5))
        curve = Curve(tuple(rng.permutation(s.n)[:k]))
        p = float(rng.uniform(1.2, 4.0))
        oracle, _ = single_curve_modulus_oracle(s, curve, p)
        assert modulus(s, CurveFamily([curve]), p).optimum == pytest.approx(
            oracle, rel=1e-6)
    for _ in range(100):
        s = _random_space(rng, 5)
        all_curves = [Curve((i, j)) for i in range(5) for j in range(5) if i != j]
        rng.shuffle(all_curves)
        k = int(rng.integers(1, len(all_curves) - 3))
        p = float(rng.uniform(1.0, 3.0))
        small = modulus(s, CurveFamily(all_curves[:k]), p).optimum
        big = modulus(s, CurveFamily(all_curves[:k + 3]), p).optimum
        assert small <= big + 1e-7
    # disjoint union additivity
    base = _random_space(np.random.default_rng(1), 3)
    n = base.n
    dd = np.full((2 * n, 2 * n), 50.0)
    dd[:n, :n] = base.dist
    dd[n:, n:] = base.dist
    np.fill_diagonal(dd, 0.0)
    double = MMS(dd, np.concatenate((base.weights, base.weights)))
    for p in (1.5, 2.0, 3.0):
        m1 = modulus(base, CurveFamily([Curve((0, 1, 2))]), p).optimum
        m2 = modulus(double, CurveFamily([Curve((0, 1, 2)),
                                          Curve((n, n + 1, n + 2))]), p).optimum
        assert m2 == pytest.approx(2 * m1, rel=1e-9, abs=1e-12)
    report(6, "single-curve optimum matches the closed form to 1e-6 on 100 "
              "instances; monotone under inclusion on 100 nested pairs; "
              "disjoint-union additive to 1e-9")


# -- 7. small-instance solver equivalence ---------------------------------------------------


def _grid_search_min(objective, bounds, coarse=75, refine=4):
    """Staged exhaustive search: coarse grid, then shrink by 10x around the
    incumbent until the local step is below 1e-3 of the range.

    ``objective`` maps an (N, d) array of points to N values (inf where
    infeasible)."""
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    h = float(np.max(hi - lo)) / coarse
    best_x, best_v = None, INF
    for _ in range(refine + 1):
        axes = [np.arange(l, u + h / 2, h) for l, u in zip(lo, hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=1)
        vals = objective(pts)
        k = int(np.argmin(vals))
        if vals[k] < best_v:
            best_v, best_x = float(vals[k]), pts[k]
        lo = np.maximum(np.array([b[0] for b in bounds]), best_x - 2 * h)
        hi = np.minimum(np.array([b[1] for b in bounds]), best_x + 2 * h)
        h /= 10.0
    return best_v


def test_criterion_07_small_instance_equivalence():
    # capacity on the two-point edge
    s2 = MMS([[0.0, 1.0], [1.0, 0.0]], [1.0, 1.0])
    edge = CurveFamily([Curve((0, 1))])
    for p in (1.0, 2.0, 3.0):
        res = capacity(s2, [0], edge, p)

        def cap_obj(x, p=p):
            u1, g0, g1 = x.T
            infeasible = ((g0 + g1) / 2 < 1.0 - u1 - 1e-9) | (u1 > 1.0 + 1e-9)
            vals = ((1.0 + u1 ** p) ** (1 / p)
                    + (g0 ** p + g1 ** p) ** (1 / p))
            return np.where(infeasible, INF, vals)

        oracle = _grid_search_min(cap_obj, [(0.0, 1.0), (0.0, 1.6), (0.0, 1.6)])
        assert res.optimum == pytest.approx(oracle, abs=1e-4), p

    # minimal upper gradient on the three-point path
    s3 = path_space(3)
    u3 = np.array([0.0, 1.0, 2.0])
    fam = CurveFamily.path_subpaths(3)
    for p in (1.0, 2.0):
        res = minimal_upper_gradient(s3, u3, fam, p)

        def mug_obj(g, p=p):
            infeasible = np.zeros(len(g), dtype=bool)
            for c in fam:
                drop = abs(u3[c.vertices[0]] - u3[c.vertices[-1]])
                # the trapezoid edge rule, on every point at once
                integral = 0.0
                for a, b in zip(c.vertices[:-1], c.vertices[1:]):
                    integral = integral + s3.dist[a, b] * (g[:, a] + g[:, b]) / 2.0
                infeasible |= integral < drop - 1e-9
            vals = np.sum(s3.weights * g ** p, axis=1) ** (1.0 / p)
            return np.where(infeasible, INF, vals)

        oracle = _grid_search_min(mug_obj, [(0.0, 3.0)] * 3)
        assert res.optimum == pytest.approx(oracle, abs=1e-4), p

    # pair-defined gradient on three collinear points with unequal weights
    d3 = np.array([[0.0, 1.0, 2.5], [1.0, 0.0, 1.5], [2.5, 1.5, 0.0]])
    su = MMS(d3, [0.5, 1.0, 2.0])
    uu = np.array([0.0, 1.0, 3.0])
    for p in (1.0, 2.0, 3.0):
        res = minimal_hajlasz(su, uu, p)

        def haj_obj(h, p=p):
            infeasible = np.zeros(len(h), dtype=bool)
            for i in range(3):
                for j in range(i + 1, 3):
                    infeasible |= d3[i, j] * (h[:, i] + h[:, j]) < abs(uu[i] - uu[j]) - 1e-9
            vals = np.sum(su.weights * h ** p, axis=1) ** (1.0 / p)
            return np.where(infeasible, INF, vals)

        oracle = _grid_search_min(haj_obj, [(0.0, 3.0)] * 3)
        assert res.optimum == pytest.approx(oracle, abs=1e-4), p
    report(7, "capacity, minimal upper gradient and pair gradient match the "
              "staged grid-search oracles within 1e-4 on all micro-instances")


# -- 8. trivial regime with the empty curve family ---------------------------------------------


def test_criterion_08_trivial_regime():
    rng = np.random.default_rng(808080)
    for _ in range(12):
        s = _random_space(rng, int(rng.integers(2, 7)))
        k = int(rng.integers(1, s.n + 1))
        fixed = sorted(rng.permutation(s.n)[:k])
        p = float(rng.uniform(1.0, 4.0))
        res = capacity(s, fixed, CurveFamily.empty(), p)
        assert res.optimum == float(np.sum(s.weights[fixed])) ** (1.0 / p)
        u = rng.normal(size=s.n)
        assert minimal_upper_gradient(s, u, CurveFamily.empty(), p).optimum == 0.0
    report(8, "empty curve family: capacity equals the indicator norm "
              "exactly and minimal gradients vanish")


# -- 9. the Lipschitz truncation sweep ------------------------------------------------------------


def test_criterion_09_lip_trunc_sweep():
    rows = lip_trunc_sweep_preset(instances=20, eps_values=(0.5, 0.1, 0.02),
                                  seed=909090)
    assert len(rows) == 60
    assert all(r["gap_ok"] for r in rows)
    assert all(r["monotone_ok"] for r in rows)
    report(9, "20 spike/ramp instances over L^2 and L^(2,1): all invariants "
              "verified pairwise, norm gap below every requested eps, "
              "exceptional sets non-increasing along the sweep")


# -- 10. the counterexample profile ----------------------------------------------------------------


def test_criterion_10_marcinkiewicz_gap():
    weak_rows, lp_rows, prof = marcinkiewicz_gap_tables(alpha=2.0, dim=3,
                                                        grid=200)
    weak_col = [r.grad_norm for r in weak_rows]
    lp_col = [r.grad_norm for r in lp_rows]
    assert min(weak_col) >= 0.5 * weak_col[0] > 0
    assert min(lp_col) < 0.01 * lp_col[0]
    report(10, f"weak gradient column min/first = "
               f"{min(weak_col) / weak_col[0]:.3f} >= 0.5; the L^2 column "
               f"decays below 0.01 of its first entry")


# -- 11. criteria sweep coherence --------------------------------------------------------------------


def test_criterion_11_criteria_sweep():
    p0, q0 = 2.0, 3.0
    rows = criteria_sweep_preset(p0=p0, q0=q0,
                                 p_values=(1.0, 1.5, 2.0, 3.0))
    for r in rows:
        if r["p"] < p0:
            assert r["verdict"], r
        elif r["p"] == p0:
            assert r["verdict"] == r["complete"], r
        else:
            assert not r["verdict"], r
    # implication coherence across a wider spec collection
    specs = [NormSpec.lorentz(p0, q0), NormSpec.lorentz(3, 1), NormSpec.lp(2),
             NormSpec.lp(1), NormSpec.marcinkiewicz(FundamentalFn.power(0.5)),
             NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.25)),
             NormSpec.lambda_phi(FundamentalFn.power(0.5))]
    for spec in specs:
        for p in (1.0, 1.5, 2.0, 4.0):
            for complete in (False, True):
                rep = density_criteria_report(spec, p=p,
                                              complete_space=complete)
                for a, b in IMPLICATIONS:
                    if a in rep.conditions and b in rep.conditions:
                        if rep.conditions[a].is_true:
                            assert rep.conditions[b].is_true, (
                                spec.describe(), p, a, b)
    report(11, "density verdict true iff p < 2, and at p = 2 only with the "
               "complete-space flag; all proved implications hold on every "
               "evaluated spec")


# -- 12. fundamental indices -----------------------------------------------------------------------


def test_criterion_12_indices():
    for p in (1.0, 1.5, 2.0, 4.0, 8.0):
        rep = zippin_upper(FundamentalFn.power(1.0 / p))
        assert rep.beta_upper == 1.0 / p
        assert rep.beta_exact
        for s, k in rep.k_samples:
            assert 1.0 - 1e-12 <= k <= s + 1e-12
    # sampled shapes keep the bound 1 <= k(s) <= s too
    rng = np.random.default_rng(121212)
    for _ in range(10):
        phi = random_quasiconcave_phi(rng)
        rep = zippin_upper(phi)
        for s, k in rep.k_samples:
            assert 1.0 - 1e-9 <= k <= s * (1 + 1e-9)
    report(12, "Zippin index exactly 1/p for power shapes; every k sample "
               "inside [1, s]")
