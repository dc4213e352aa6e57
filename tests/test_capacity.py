"""Capacity through the separable-power solver, with a certified gap.

The golden optima were computed by the previous norm-sum solver (SLSQP on
a mollified objective for p > 1, HiGHS with point bounds for p = 1) on
the benchmark's capacity instances.  Each entry keeps that solver's own
residual, which measured primal violation only: its optimum is known only
to within it, so the agreement asked for is 1e-7 relative plus twice the
recorded residual.  The new optimum may sit below an old one (SLSQP can
stop short of the minimum) but not above it by more than that.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_sweeps import spaces

from rikit.cli import main
from rikit.metric import (
    MMS,
    Curve,
    CurveFamily,
    _family_rows,
    capacity,
    grid_space,
    path_space,
    tree_space,
)

TREE_EDGES = CurveFamily([Curve((i, (i - 1) // 2)) for i in range(1, 31)])

INSTANCES = {
    "path20": lambda p: capacity(path_space(20), (0, 1), CurveFamily.path_edges(20), p),
    "grid3": lambda p: capacity(grid_space(3, 3), (0, 4), CurveFamily.pairs(grid_space(3, 3)),
                                p),
    "tree24": lambda p: capacity(tree_space(2, 4), (0,), TREE_EDGES, p),
    "path16": lambda p: capacity(path_space(16), (0, 1), CurveFamily.path_edges(16), p),
    "grid44": lambda p: capacity(grid_space(4, 4), (0,), CurveFamily.pairs(grid_space(4, 4)),
                                 p),
}

# (instance, p): (optimum, kkt_residual) of the previous solver
GOLDEN = {
    ("path20", 1.0): (3.5, 0.0),
    ("path20", 1.05): (3.377666016239904, 2.9e-15),
    ("path20", 2.0): (2.1643161766709516, 3.9e-16),
    ("path20", 3.0): (1.7185337407764159, 4.3e-16),
    ("grid3", 1.0): (6.0, 0.0),
    ("grid3", 1.05): (5.8050798452310195, 2.4e-15),
    ("grid3", 2.0): (2.912594913728311, 3.3e-15),
    ("grid3", 3.0): (2.0582532349542615, 6.8e-16),
    ("tree24", 1.0): (3.0, 0.0),
    ("tree24", 1.05): (2.999942730380612, 2.7e-14),
    ("tree24", 2.0): (2.189267444467589, 2.7e-15),
    ("tree24", 3.0): (1.7756025525408758, 1.0e-15),
    ("path16", 1.0): (3.5, 0.0),
    ("path16", 1.05): (3.377666016239901, 2.2e-15),
    ("path16", 2.0): (2.1643161138809823, 3.6e-16),
    ("path16", 3.0): (1.7185313127826551, 1.4e-15),
    ("grid44", 1.0): (3.0, 0.0),
    ("grid44", 1.05): (2.9999427303806536, 1.0e-15),
    ("grid44", 2.0): (2.17262447642496, 3.5e-16),
    ("grid44", 3.0): (1.747865803955039, 1.1e-15),
}


def rows(space, fixed, curves):
    """The program's rows over z = (u, g), in capacity's order."""
    n = space.n
    out = []
    for c in curves:
        for sign in (1.0, -1.0):
            row = np.zeros(2 * n)
            row[n:] = _family_rows(space, CurveFamily([c]))[0]
            row[c.vertices[0]] -= sign
            row[c.vertices[-1]] += sign
            out.append(row)
    for i in sorted(set(fixed)):
        row = np.zeros(2 * n)
        row[i] = 1.0
        out.append(row)
    A = np.array(out)
    return A, np.concatenate((np.zeros(2 * len(curves)), np.ones(len(A) - 2 * len(curves))))


def dual_value(space, fixed, curves, res, p):
    """lam.b and the larger dual norm of A^T lam, from the certificate's duals."""
    A, b = rows(space, fixed, curves)
    lam = np.asarray(res.certificate["duals"])
    c = np.maximum(A.T @ lam, 0.0) / np.concatenate((space.weights, space.weights))
    mu, n = space.weights, space.n
    if p == 1.0:
        norms = [np.max(c[:n]), np.max(c[n:])]
    else:
        q = p / (p - 1.0)
        norms = [np.sum(mu * c[:n] ** q) ** (1 / q), np.sum(mu * c[n:] ** q) ** (1 / q)]
    return float(lam @ b), max(norms)


def check_certified(space, fixed, curves, res, p):
    """Exact feasibility, the reported parts, and a gap within tol."""
    n = space.n
    u, g = res.minimizer[:n], res.minimizer[n:]
    cert = res.certificate
    assert np.all(u[list(fixed)] >= 1.0) and np.all(g >= 0.0) and np.all(u >= 0.0)
    for c in curves:
        drop = abs(u[c.vertices[0]] - u[c.vertices[-1]])
        assert drop <= float(_family_rows(space, CurveFamily([c]))[0] @ g) * (1 + 1e-13)
    parts = [float(np.sum(space.weights * v ** p)) ** (1 / p) for v in (u, g)]
    assert cert["norm_parts"] == pytest.approx(parts, rel=1e-12)
    assert res.optimum == pytest.approx(sum(parts), rel=1e-12)
    assert cert["kkt_residual"] <= res.tolerance
    assert 0.0 <= cert["duality_gap"] <= res.tolerance * (1.0 + res.optimum)
    # at an exact optimum the two bounds meet up to rounding
    assert cert["lower_bound"] <= res.optimum * (1 + 1e-12)
    assert res.optimum - cert["duality_gap"] == pytest.approx(cert["lower_bound"], rel=1e-12)
    # the reported duals are feasible for the norm-sum dual, and their
    # value is the lower bound
    value, top = dual_value(space, fixed, curves, res, p)
    assert top == pytest.approx(1.0, rel=1e-9)
    assert value == pytest.approx(cert["lower_bound"], rel=1e-9)


@pytest.mark.parametrize("name,p", sorted(GOLDEN))
def test_golden_optima(name, p):
    want, kkt = GOLDEN[name, p]
    res = INSTANCES[name](p)
    assert res.certificate["kkt_residual"] <= res.tolerance
    assert "duality_gap" in res.certificate
    assert res.optimum == pytest.approx(want, rel=1e-7 + 2.0 * kkt, abs=0.0)
    assert res.telemetry["theta_rounds"] >= 1
    assert res.certificate["iterations"] == res.telemetry["newton_iterations"]
    # no Newton run stalls and restarts from the HiGHS duals
    assert p == 1.0 or "highs" not in res.telemetry["wall_s"]


@pytest.mark.parametrize("p", [1.0, 1.05, 2.0, 3.0])
def test_bench_instances_certified(p):
    g44 = grid_space(4, 4)
    for space, fixed, curves in [(path_space(20), (0, 1), CurveFamily.path_edges(20)),
                                 (tree_space(2, 4), (0,), TREE_EDGES),
                                 (g44, (0,), CurveFamily.pairs(g44)),
                                 (g44, (0, 5), CurveFamily.pairs(g44))]:
        res = capacity(space, fixed, curves, p)
        check_certified(space, fixed, curves, res, p)
        # dual Newton from zero duals reaches every first round: no restart
        # from the HiGHS duals
        assert p == 1.0 or "highs" not in res.telemetry["wall_s"]
        assert res.certificate["iterations"] == res.telemetry["newton_iterations"]


@pytest.mark.parametrize("p,want", [(1.02, 11.008034558214508), (1.003, 11.386826387403367)])
def test_near_one_restarts_from_the_lp_duals(p, want):
    # Newton stalls near p = 1 and restarts from p times the HiGHS duals;
    # the optima are those of the L-BFGS-B restart, which took about 1800
    # iterations
    s = path_space(13)
    curves = CurveFamily.pairs(s)
    res = capacity(s, (0, 6, 9, 12), curves, p)
    check_certified(s, (0, 6, 9, 12), curves, res, p)
    assert res.optimum == pytest.approx(want, rel=1e-9, abs=0.0)
    assert "highs" in res.telemetry["wall_s"]
    assert res.certificate["iterations"] < 200


def test_stalled_solve_places_no_bracket_end():
    # the first inner solve (theta = 1/2) stalls at p = 1.02; read as a
    # bracket end, its iterate had kept the gap at 2e-5 through every round
    d = [[0.0, 2.307420935274819, 0.39470986275330683],
         [2.307420935274819, 0.0, 1.9305266707836288],
         [0.39470986275330683, 1.9305266707836288, 0.0]]
    s = MMS(d, [1.9136526837071326, 0.47783653858532776, 1.1185458495296337])
    curves = CurveFamily([Curve(v) for v in
                          ((1, 0), (1, 0, 2), (0, 1), (2, 0), (2, 1), (0, 2))])
    check_certified(s, [2], curves, capacity(s, [2], curves, 1.02), 1.02)


@st.composite
def capacity_instances(draw):
    """A space, E inside F, a family with a superfamily, and p."""
    s = draw(spaces().filter(lambda s: 2 <= s.n <= 9))
    vertex = st.integers(0, s.n - 1)

    def curve():
        walk = [draw(vertex)]
        for _ in range(draw(st.integers(1, 3))):
            walk.append(draw(vertex.filter(lambda v, last=walk[-1]: v != last)))
        return Curve(tuple(walk))

    curves = [curve() for _ in range(draw(st.integers(1, 6)))]
    more = curves + [curve() for _ in range(draw(st.integers(1, 3)))]
    E = draw(st.sets(vertex, min_size=1, max_size=max(1, s.n - 1)))
    F = E | draw(st.sets(vertex, max_size=2))
    p = draw(st.sampled_from((1.0, 1.05, 1.5, 2.0, 3.0)))
    return s, sorted(E), sorted(F), CurveFamily(curves), CurveFamily(more), p


@settings(max_examples=60, deadline=None)
@given(capacity_instances())
def test_capacity_properties(inst):
    s, E, F, curves, more, p = inst
    small = capacity(s, E, curves, p)
    check_certified(s, E, curves, small, p)
    # every comparison runs between a certified lower and a feasible upper bound
    assert small.certificate["lower_bound"] <= s.total_measure ** (1.0 / p) * (1 + 1e-12)
    assert small.optimum <= s.total_measure ** (1.0 / p) * (1 + 1e-12)
    bigger_set = capacity(s, F, curves, p)
    check_certified(s, F, curves, bigger_set, p)
    assert small.certificate["lower_bound"] <= bigger_set.optimum * (1 + 1e-12)
    more_curves = capacity(s, E, more, p)
    check_certified(s, E, more, more_curves, p)
    assert small.certificate["lower_bound"] <= more_curves.optimum * (1 + 1e-12)


def test_cli_capacity_json_carries_gap(tmp_path, capsys):
    s = path_space(6)
    spath = tmp_path / "mms.json"
    spath.write_text(json.dumps(s.to_dict()))
    cpath = tmp_path / "curves.json"
    cpath.write_text(json.dumps(CurveFamily.path_edges(6).to_dict()))
    rc = main(["--out", str(tmp_path), "capacity", "--space", str(spath), "--set", "0,1",
               "--curves", str(cpath), "--p", "2"])
    assert rc == 0
    data = json.loads((tmp_path / "capacity.json").read_text())
    lib = capacity(s, [0, 1], CurveFamily.path_edges(6), 2.0)
    assert capsys.readouterr().out.strip() == repr(lib.optimum)
    cert = data["certificate"]
    assert cert["duality_gap"] == lib.certificate["duality_gap"]
    assert 0.0 <= cert["duality_gap"] <= data["tolerance"] * (1.0 + data["optimum"])
    assert cert["kkt_residual"] <= data["tolerance"]
    assert data["telemetry"]["theta_rounds"] == lib.telemetry["theta_rounds"]
