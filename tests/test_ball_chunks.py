"""The chunked ball-deviation kernel behind ``sharp_maximal`` and
``poincare_ratio``: chunk boundaries, infinite distances and memory.

The loop references live in ``test_ball_sweeps.py``.  Shrinking
``metric.BLOCK`` splits one centre's balls over several kernel chunks
(and, below n, gives every pair a chunk of its own), which the default
never does on spaces this small.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_ball_sweeps import (
    assert_close,
    ball_ratio,
    ref_enumerate_balls,
    ref_poincare_ratio,
    ref_sharp_maximal,
    tied_metric,
)

import rikit.metric as metric
from rikit.errors import AllDegenerate
from rikit.metric import MMS, grid_space, path_space, poincare_ratio
from rikit.regularize import sharp_maximal

INF = math.inf
RTOL = 1e-12
BLOCKS = (1, 7, 40, 100, 333)  # 1 and 7 fall below n = 25: one pair per chunk


def loop_deviation(ww, uo, rows, ends, means):
    return np.array([np.sum(ww[r, : e + 1] * np.abs(uo[r, : e + 1] - m))
                     for r, e, m in zip(rows, ends, means)])


@pytest.mark.parametrize("block", BLOCKS)
def test_ball_deviation_matches_loop_across_chunks(monkeypatch, block):
    monkeypatch.setattr(metric, "BLOCK", block)
    rng = np.random.default_rng(3)
    ww = rng.uniform(0.1, 3.0, (6, 25))
    uo = rng.standard_normal((6, 25))
    # every prefix of every row, rows interleaved, so a chunk mixes rows
    rows, ends = np.divmod(rng.permutation(6 * 25), 25)
    means = rng.standard_normal(len(rows))
    got = metric._ball_deviation(ww, uo, rows, ends, means)
    assert_close(got, loop_deviation(ww, uo, rows, ends, means))


def test_ball_deviation_chunks_stay_within_the_block(monkeypatch):
    # a long prefix after short ones gets a chunk of its own: no temporary
    # holds more than max(BLOCK, n) entries, here 2000
    monkeypatch.setattr(metric, "BLOCK", 100)
    n = 2000
    ends = np.repeat([0, n - 1], 100)
    rows = np.zeros(len(ends), dtype=np.intp)
    ww, uo, means = np.ones((1, n)), np.linspace(0.0, 1.0, n)[None, :], np.full(len(ends), 0.5)
    tracemalloc.start()
    try:
        got = metric._ball_deviation(ww, uo, rows, ends, means)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20 * 8 * n, f"peak {peak / 1e3:.0f} kB"
    assert_close(got, loop_deviation(ww, uo, rows, ends, means))


def named_space(kind):
    rng = np.random.default_rng(7)
    s = path_space(25) if kind == "path25" else grid_space(5, 5)
    return MMS(s.dist, rng.uniform(0.2, 3.0, s.n)), rng


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("kind", ["path25", "grid5x5"])
def test_sweeps_across_kernel_chunks(monkeypatch, kind, block):
    s, rng = named_space(kind)
    u = rng.standard_normal(s.n)
    g = rng.uniform(0.1, 1.0, s.n)
    want_sharp = ref_sharp_maximal(s, u)
    want, want_ball = ref_poincare_ratio(s, u, g, 2.0, 1.5)
    monkeypatch.setattr(metric, "BLOCK", block)
    assert_close(sharp_maximal(s, u), want_sharp)
    ratio, ball = poincare_ratio(s, u, g, 2.0, 1.5)
    assert ratio == pytest.approx(want, rel=RTOL)
    assert ball == want_ball


@settings(max_examples=60, deadline=None)
@given(tied_metric(), st.sampled_from(BLOCKS), st.sampled_from((1.0, 2.0)), st.data())
def test_tied_sweeps_across_kernel_chunks(s, block, p, data):
    u = np.asarray(data.draw(st.lists(st.floats(-3.0, 3.0), min_size=s.n, max_size=s.n)))
    g = np.asarray(data.draw(st.lists(st.floats(0.0, 2.0), min_size=s.n, max_size=s.n)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metric, "BLOCK", block)
        assert_close(sharp_maximal(s, u), ref_sharp_maximal(s, u))
        try:
            want, _ = ref_poincare_ratio(s, u, g, p)
        except AllDegenerate:
            with pytest.raises(AllDegenerate):
                poincare_ratio(s, u, g, p)
            return
        ratio, ball = poincare_ratio(s, u, g, p)
    assert ratio == want or ratio == pytest.approx(want, rel=RTOL, abs=0.0)
    assert ball in ref_enumerate_balls(s)
    again = ball_ratio(s, u, g, p, 1.0, ball)
    assert again == ratio or again == pytest.approx(ratio, rel=RTOL, abs=0.0)


def two_components():
    """A path on 0, 1, 2 and an edge 3 - 4, at infinite distance apart."""
    d = np.full((5, 5), INF)
    d[:3, :3] = path_space(3).dist
    d[3:, 3:] = path_space(2, spacing=0.5).dist
    w = np.array([1.0, 2.0, 0.5, 1.5, 1.0])
    return MMS(d, w), MMS(d[:3, :3], w[:3]), MMS(d[3:, 3:], w[3:])


@pytest.mark.parametrize("block", [1, 7, metric.BLOCK])
def test_sweeps_over_infinite_distances(monkeypatch, block):
    monkeypatch.setattr(metric, "BLOCK", block)
    s, left, right = two_components()
    u = np.array([0.0, 1.0, -2.0, 4.0, 3.0])
    g = np.array([1.0, 0.5, 2.0, 1.0, 3.0])
    # the ball of infinite radius adds 0: each part sees only its own balls
    out = sharp_maximal(s, u)
    assert_close(out, ref_sharp_maximal(s, u))
    assert_close(out, np.concatenate((sharp_maximal(left, u[:3]), sharp_maximal(right, u[3:]))))
    for p, lam in ((1.0, 1.0), (2.0, 0.5), (3.0, 2.0)):
        want, want_ball = ref_poincare_ratio(s, u, g, p, lam)
        ratio, ball = poincare_ratio(s, u, g, p, lam)
        assert ratio == pytest.approx(want, rel=RTOL)
        assert ball == want_ball
        # a ball spanning both parts has infinite diameter and ratio 0
        parts = [poincare_ratio(part, u[k], g[k], p, lam)[0]
                 for part, k in ((left, slice(0, 3)), (right, slice(3, 5)))]
        assert ratio == pytest.approx(max(parts), rel=RTOL)


def test_sweeps_stay_below_16_mb():
    # one block of path_space(300) holds 218 centres: an R x n x n temporary
    # of its sorted submatrices would take 157 MB
    s = path_space(300)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(s.n)
    g = rng.uniform(0.1, 1.0, s.n)
    for call in (lambda: sharp_maximal(s, u), lambda: poincare_ratio(s, u, g, 2.0)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6, f"peak {peak / 1e6:.1f} MB"


@pytest.mark.parametrize("lam", [-1.0, math.nan])
def test_poincare_ratio_rejects_a_negative_lam(lam):
    # the lam-ball count of a negative radius would index from the far end
    with pytest.raises(ValueError, match="lam"):
        poincare_ratio(path_space(3), [0.0, 1.0, 0.0], np.ones(3), 2.0, lam)


def test_poincare_ratio_lam_zero_averages_the_centre():
    s = path_space(3)
    u, g = np.array([0.0, 1.0, 3.0]), np.array([1.0, 2.0, 4.0])
    want, want_ball = ref_poincare_ratio(s, u, g, 2.0, 0.0)
    ratio, ball = poincare_ratio(s, u, g, 2.0, 0.0)
    assert ratio == pytest.approx(want, rel=RTOL)
    assert ball == want_ball
