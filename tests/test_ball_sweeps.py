"""The vectorized ball sweeps against their per-ball loop references.

``maximal_metric``, ``sharp_maximal`` and ``poincare_ratio`` walk the
distance-sorted rows of a space in blocks.  The loop versions below are
the per-center, per-ball implementations they replaced; they are kept
here as oracles.  ``maximal_metric`` only reorders exact operations (max)
around the same prefix sums, and takes the monotone power 1/p of the
largest mean in place of the largest power, so it must match its reference
bit for bit;
the other two sum deviations in another order and match to 1e-12
relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rikit.metric as metric
from rikit.errors import AllDegenerate
from rikit.maximal import herz_riesz_ratios, maximal_metric
from rikit.metric import MMS, BallInfo, grid_space, path_space, poincare_ratio, tree_space
from rikit.regularize import sharp_maximal

INF = math.inf
RTOL = 1e-12


# -- loop references --------------------------------------------------------------


def ref_maximal_metric(space, u, p):
    u = np.abs(np.asarray(u, dtype=float))
    n = space.n
    w = space.weights
    up = u ** p
    out = np.zeros(n)
    for c in range(n):
        order = np.argsort(space.dist[c], kind="stable")
        ds = space.dist[c][order]
        cw = np.cumsum(w[order])
        cf = np.cumsum((w * up)[order])
        ends = np.nonzero(np.diff(np.append(ds, INF)) > 0)[0]
        means = (cf[ends] / cw[ends]) ** (1.0 / p)
        for e, m in zip(ends, means):
            np.maximum.at(out, order[: e + 1], m)
    return out


def ref_sharp_maximal(space, u):
    u = np.asarray(u, dtype=float)
    w = space.weights
    n = space.n
    out = np.zeros(n)
    for c in range(n):
        order = np.argsort(space.dist[c], kind="stable")
        ds = space.dist[c][order]
        uw = (u * w)[order]
        ww = w[order]
        cw = np.cumsum(ww)
        cu = np.cumsum(uw)
        best = 0.0
        for e in range(1, n):
            if e + 1 < n and ds[e + 1] == ds[e]:
                continue
            r = ds[e]
            if r <= 0:
                continue
            mean = cu[e] / cw[e]
            dev = float(np.sum(ww[: e + 1] * np.abs(u[order[: e + 1]] - mean)))
            best = max(best, dev / cw[e] / r)
        out[c] = best
    return out


def ref_enumerate_balls(space):
    out = []
    d = space.dist
    for c in range(space.n):
        order = np.argsort(d[c], kind="stable")
        ds = d[c][order]
        n = len(ds)
        for k in range(n):
            if k + 1 < n and ds[k + 1] == ds[k]:
                continue
            out.append(BallInfo(c, float(ds[k]), tuple(int(i) for i in order[: k + 1])))
    return out


def ball_ratio(space, u, g, p, lam, ball):
    """The Poincare ratio of one ball, or None where the ball is skipped."""
    w, d = space.weights, space.dist
    members = np.asarray(ball.members)
    if len(members) < 2:
        return None
    bw = w[members]
    diam = float(np.max(d[np.ix_(members, members)]))
    if diam <= 0:
        return None
    u_b = float(np.sum(bw * u[members]) / np.sum(bw))
    lhs = float(np.sum(bw * np.abs(u[members] - u_b)) / np.sum(bw))
    lam_members = np.where(d[ball.center] <= lam * ball.radius)[0]
    lw = w[lam_members]
    rhs_root = float(np.sum(lw * g[lam_members] ** p) / np.sum(lw)) ** (1.0 / p)
    denom = diam * rhs_root
    if lhs <= 0 and denom <= 0:
        return None
    return INF if denom <= 0 else lhs / denom


def ref_poincare_ratio(space, u, g, p, lam=1.0):
    u = np.asarray(u, dtype=float)
    g = np.asarray(g, dtype=float)
    best = None
    best_ball = None
    for ball in ref_enumerate_balls(space):
        ratio = ball_ratio(space, u, g, p, lam, ball)
        if ratio is None:
            continue
        if best is None or ratio > best:
            best = ratio
            best_ball = ball
    if best is None:
        raise AllDegenerate("every ball was skipped")
    return best, best_ball


def set_maximal_metric(space, u, p):
    """max over the closed balls B(c, r) containing x of the p-mean of |u|."""
    u = np.abs(np.asarray(u, dtype=float))
    w = space.weights
    out = np.zeros(space.n)
    for c in range(space.n):
        for r in np.unique(space.dist[c]):
            ball = space.dist[c] <= r
            m = (np.sum(w[ball] * u[ball] ** p) / np.sum(w[ball])) ** (1.0 / p)
            out[ball] = np.maximum(out[ball], m)
    return out


# -- spaces -------------------------------------------------------------------------


def _weights(draw, n):
    if draw(st.booleans()):
        return np.ones(n)
    return np.asarray(draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)))


@st.composite
def tied_metric(draw):
    """Shortest paths of a complete graph with small integer edge lengths."""
    n = draw(st.integers(1, 9))
    lengths = draw(st.lists(st.integers(1, 3), min_size=n * n, max_size=n * n))
    d = np.asarray(lengths, dtype=float).reshape(n, n)
    d = np.minimum(d, d.T)
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, [k]] + d[[k], :])
    return MMS(d, _weights(draw, n))


@st.composite
def spaces(draw):
    kind = draw(st.sampled_from(("path", "grid", "tree", "tied")))
    if kind == "path":
        n = draw(st.integers(1, 12))
        return path_space(n, spacing=draw(st.sampled_from((1.0, 0.1, 1.0 / 3.0))),
                          weights=_weights(draw, n))
    if kind == "grid":
        s = grid_space(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    elif kind == "tree":
        s = tree_space(draw(st.integers(1, 3)), draw(st.integers(0, 2)))
    else:
        return draw(tied_metric())
    return MMS(s.dist, _weights(draw, s.n))


@st.composite
def space_and_fn(draw):
    s = draw(spaces())
    vals = st.one_of(st.just(0.0), st.floats(-5.0, 5.0), st.integers(-2, 2).map(float))
    u = np.asarray(draw(st.lists(vals, min_size=s.n, max_size=s.n)))
    return s, u


P_VALUES = st.sampled_from((1.0, 1.05, 2.0, 3.0))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0.0)


# -- maximal_metric -------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(space_and_fn(), P_VALUES)
def test_maximal_metric_bit_identical_to_loop(su, p):
    s, u = su
    out = maximal_metric(s, u, p)
    np.testing.assert_array_equal(out, ref_maximal_metric(s, u, p))
    assert_close(out, set_maximal_metric(s, u, p))


@pytest.mark.parametrize("space", [path_space(60), grid_space(7, 8), tree_space(3, 3)],
                         ids=["path60", "grid7x8", "tree3,3"])
@pytest.mark.parametrize("p", [1.0, 1.05, 2.0, 3.0])
def test_maximal_metric_bit_identical_named_spaces(space, p):
    rng = np.random.default_rng(11)
    u = rng.standard_normal(space.n)
    u[::5] = 0.0
    s = MMS(space.dist, rng.uniform(0.2, 3.0, space.n))
    for sp in (space, s):
        np.testing.assert_array_equal(maximal_metric(sp, u, p), ref_maximal_metric(sp, u, p))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the reference
def test_maximal_metric_infinite_distances_bit_identical():
    # two components at infinite distance: no ball spans both
    d = np.array([[0.0, 1.0, INF], [1.0, 0.0, INF], [INF, INF, 0.0]])
    s = MMS(d, [1.0, 2.0, 1.0])
    u = np.array([1.0, 0.0, 4.0])
    out = maximal_metric(s, u, 2.0)
    np.testing.assert_array_equal(out, ref_maximal_metric(s, u, 2.0))
    np.testing.assert_array_equal(out[2], 4.0)


@st.composite
def wide_space_and_fn(draw):
    """A space with weights from 1e-3 to 1e3 and a u with inf markers."""
    s = draw(spaces())
    weight = st.one_of(st.floats(1e-3, 1e3), st.sampled_from((1e-3, 1e3)))
    w = np.asarray(draw(st.lists(weight, min_size=s.n, max_size=s.n)))
    vals = st.one_of(st.just(0.0), st.floats(-5.0, 5.0), st.sampled_from((INF, -INF)))
    u = np.asarray(draw(st.lists(vals, min_size=s.n, max_size=s.n)))
    return MMS(s.dist, w), u


@settings(max_examples=150, deadline=None)
@given(wide_space_and_fn(), st.sampled_from((1.0, 1.05, 2.0, 3.0, 7.0)))
def test_maximal_metric_bit_identical_on_wide_inputs(su, p):
    # one power per point after the sweep keeps the bits of a power per ball
    s, u = su
    out = maximal_metric(s, u, p)
    np.testing.assert_array_equal(out, ref_maximal_metric(s, u, p))
    assert_close(out, set_maximal_metric(s, u, p))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf in the reference
@pytest.mark.parametrize("p", [1.0, 1.05, 7.0])
def test_maximal_metric_inf_markers_on_infinite_distances_bit_identical(p):
    d = np.array([[0.0, 1.0, INF, INF], [1.0, 0.0, INF, INF],
                  [INF, INF, 0.0, 2.0], [INF, INF, 2.0, 0.0]])
    s = MMS(d, [1e-3, 2.0, 1e3, 0.5])
    u = np.array([1.0, 0.0, -INF, 3.0])
    out = maximal_metric(s, u, p)
    np.testing.assert_array_equal(out, ref_maximal_metric(s, u, p))
    np.testing.assert_array_equal(out[2:], INF)


# -- _ball_index --------------------------------------------------------------------------


def assert_ball_index_sorts(space):
    """ds is rows[order] bit for bit, order the stable argsort, over every block."""
    covered = 0
    for first, order, ds, last in metric._ball_index(space):
        assert first == covered
        rows = space.dist[first:first + len(order)]
        assert np.array_equal(order, np.argsort(rows, axis=1, kind="stable"))
        want = np.take_along_axis(rows, order, axis=1)
        assert ds.dtype == want.dtype and ds.tobytes() == want.tobytes()
        ends = np.ones(ds.shape, dtype=bool)
        ends[:, :-1] = want[:, 1:] != want[:, :-1]
        assert np.array_equal(last, ends)
        covered += len(order)
    assert covered == space.n


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_ball_index_sorted_distances_match_the_gather(s):
    assert_ball_index_sorts(s)


INFINITE = MMS(np.array([[0.0, 1.0, INF], [1.0, 0.0, INF], [INF, INF, 0.0]]), [1.0, 2.0, 1.0])


@pytest.mark.parametrize("block", [1, 5, 13, 30, metric.BLOCK])
@pytest.mark.parametrize("space", [INFINITE, tree_space(2, 2), grid_space(3, 3)],
                         ids=["infinite", "tree2,2", "grid3x3"])
def test_ball_index_across_block_boundaries(monkeypatch, block, space):
    monkeypatch.setattr(metric, "BLOCK", block)
    assert_ball_index_sorts(space)


# -- input checks -------------------------------------------------------------------------


@pytest.mark.parametrize("p", [INF, math.nan, 0.5, 0.0, -1.0])
def test_maximal_metric_rejects_p_outside_one_to_inf(p):
    # at p = inf every mean of u^p with an entry above 1 was inf, so
    # maximal_metric(path_space(4), [0, 2, 0, 0], inf) read 1 everywhere
    s = path_space(4)
    u = [0.0, 2.0, 0.0, 0.0]
    with pytest.raises(ValueError, match="1 <= p < inf"):
        maximal_metric(s, u, p)
    with pytest.raises(ValueError, match="1 <= p < inf"):
        herz_riesz_ratios(s, u, p)


@pytest.mark.parametrize("p", [-1.0, 0.0, 0.5, INF, math.nan])
def test_poincare_ratio_rejects_p_outside_one_to_inf(p):
    # p = -1 read 0.667 and p = 0 raised ZeroDivisionError
    with pytest.raises(ValueError, match="1 <= p < inf"):
        poincare_ratio(path_space(4), [0.0, 2.0, 0.0, 1.0], np.ones(4), p)


@pytest.mark.parametrize("u", [[0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0, 4.0],
                               [[0.0, 1.0], [2.0, 3.0]]], ids=["3", "5", "2x2"])
def test_ball_operators_reject_u_of_the_wrong_length(u):
    # 3 values on 4 points raised numpy's "operands could not be broadcast"
    s = path_space(4)
    match = "one value per point"
    with pytest.raises(ValueError, match=match):
        maximal_metric(s, u, 2.0)
    with pytest.raises(ValueError):  # the rearrangement of u raises first
        herz_riesz_ratios(s, u, 1.0)
    with pytest.raises(ValueError, match=match):
        sharp_maximal(s, u)
    with pytest.raises(ValueError, match=match):
        poincare_ratio(s, u, np.ones(4), 1.0)
    with pytest.raises(ValueError, match=match):
        poincare_ratio(s, np.ones(4), u, 1.0)


# -- sharp_maximal ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(space_and_fn())
def test_sharp_maximal_matches_loop(su):
    s, u = su
    assert_close(sharp_maximal(s, u), ref_sharp_maximal(s, u))


# -- poincare_ratio ------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(space_and_fn(), P_VALUES, st.sampled_from((0.5, 1.0, 2.0)), st.data())
def test_poincare_ratio_matches_loop(su, p, lam, data):
    s, u = su
    g = np.asarray(data.draw(st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 3.0)), min_size=s.n, max_size=s.n)))
    try:
        want, _ = ref_poincare_ratio(s, u, g, p, lam)
    except AllDegenerate:
        with pytest.raises(AllDegenerate):
            poincare_ratio(s, u, g, p, lam)
        return
    ratio, ball = poincare_ratio(s, u, g, p, lam)
    assert type(ratio) is float
    assert ratio == want or ratio == pytest.approx(want, rel=RTOL, abs=0.0)
    # the returned ball is a ball of the enumeration and reproduces the ratio
    assert ball in ref_enumerate_balls(s)
    again = ball_ratio(s, u, g, p, lam, ball)
    assert again == ratio or again == pytest.approx(ratio, rel=RTOL, abs=0.0)


def test_poincare_ratio_first_worst_ball():
    # a constant jump seen by many equal-ratio balls: the first one wins
    s = path_space(6)
    u = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
    g = np.ones(6)
    want, want_ball = ref_poincare_ratio(s, u, g, 1.0)
    ratio, ball = poincare_ratio(s, u, g, 1.0)
    assert ball == want_ball
    assert ratio == pytest.approx(want, rel=RTOL)


def test_poincare_ratio_zero_gradient_is_inf():
    s = path_space(3)
    ratio, ball = poincare_ratio(s, [0.0, 1.0, 0.0], np.zeros(3), 2.0)
    assert ratio == INF
    assert ball == BallInfo(0, 1.0, (0, 1))


# -- block boundaries ------------------------------------------------------------------------


@pytest.mark.parametrize("block", [1, 13, 30])
def test_sweeps_across_block_boundaries(monkeypatch, block):
    # n = 7 is not a multiple of the rows per block (1, 1 and 4 rows)
    monkeypatch.setattr(metric, "BLOCK", block)
    rng = np.random.default_rng(5)
    s = MMS(tree_space(2, 2).dist, rng.uniform(0.5, 2.0, 7))
    u = rng.standard_normal(7)
    g = rng.uniform(0.1, 1.0, 7)
    np.testing.assert_array_equal(maximal_metric(s, u, 2.0), ref_maximal_metric(s, u, 2.0))
    assert_close(sharp_maximal(s, u), ref_sharp_maximal(s, u))
    want, want_ball = ref_poincare_ratio(s, u, g, 2.0)
    ratio, ball = poincare_ratio(s, u, g, 2.0)
    assert ratio == pytest.approx(want, rel=RTOL)
    assert ball == want_ball


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("u", [[INF, 0.0, 1.0, 2.0], [0.0, 1.0, 5.0, INF]])
def test_poincare_ratio_inf_marker_matches_loop(u):
    # balls holding an inf marker have a nan ratio, which never wins
    s = path_space(4)
    g = np.ones(4)
    want, want_ball = ref_poincare_ratio(s, u, g, 1.0)
    ratio, ball = poincare_ratio(s, u, g, 1.0)
    assert ball == want_ball
    assert ratio == pytest.approx(want, rel=RTOL, nan_ok=True)
