"""Property tests for the decreasing rearrangement and the superlevel sets.

The loop versions below are the per-block and per-sample walks that the
vectorized ``decreasing_rearrangement`` and ``superlevel_family``
replaced; they are kept here as oracles.  The rearrangement sums each tie
block sequentially, where the loop uses ``np.sum`` (pairwise on blocks of
8 or more), so its edges must match the loop bit for bit on tie-free
inputs and to 1e-13 relative otherwise.  ``superlevel_family`` keeps the
same sequential partial sums and must match its loop exactly.  The
hypothesis strategies draw at most 144 samples; fixed seeded inputs of
1,000 to 100,000 samples cover the sizes where numpy sorts differently.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rikit.errors import NotAttainable
from rikit.rearrange import (
    MEASURE_ATOL,
    SuperlevelSet,
    WeightedSamples,
    decreasing_rearrangement,
    distribution,
    gridfn_distribution,
    superlevel_family,
)

INF = math.inf
RTOL = 1e-13


# -- loop references --------------------------------------------------------------


def ref_sorted_desc(u):
    a = np.abs(u.values)
    return np.lexsort((np.arange(len(a)), -a))


def ref_decreasing_rearrangement(u):
    """Edges and values of the rearrangement, by the per-block loop."""
    order = ref_sorted_desc(u)
    vals = np.abs(u.values)[order]
    w = u.weights[order]
    merged_vals = []
    merged_w = []
    i = 0
    n = len(vals)
    while i < n:
        j = i
        while j + 1 < n and vals[j + 1] == vals[i]:
            j += 1
        block = np.sort(w[i : j + 1])[::-1]
        merged_vals.append(vals[i])
        merged_w.append(float(np.sum(block)))
        i = j + 1
    if merged_vals and merged_vals[-1] == 0.0:
        merged_vals.pop()
        merged_w.pop()
    return np.concatenate(([0.0], np.cumsum(merged_w))), np.asarray(merged_vals, dtype=float)


def ref_canonical_cells(u):
    """Cell values and edges from Python's sort of the (|value|, weight)
    pairs, descending, each block of equal values summed left to right."""
    pairs = sorted(zip(np.abs(u.values).tolist(), u.weights.tolist()), reverse=True)
    vals, widths = [], []
    for v, w in pairs:
        if vals and vals[-1] == v:
            widths[-1] += w
        else:
            vals.append(v)
            widths.append(w)
    if vals and vals[-1] == 0.0:
        vals.pop()
        widths.pop()
    edges = [0.0]
    for w in widths:
        edges.append(edges[-1] + w)
    return vals, edges


def ref_superlevel_family(u, t):
    t = float(t)
    total = u.total_weight
    if t < -MEASURE_ATOL or t > total + MEASURE_ATOL:
        raise ValueError("t must lie in [0, total weight]")
    if t <= MEASURE_ATOL:
        a = np.abs(u.values)
        level = INF if np.any(~np.isfinite(a)) else (float(np.max(a)) if len(a) else 0.0)
        return SuperlevelSet(indices=(), target_measure=t, level=level)
    order = ref_sorted_desc(u)
    a = np.abs(u.values)[order]
    w = u.weights[order]
    cw = np.cumsum(w)
    j = int(np.searchsorted(cw, t - MEASURE_ATOL, side="left"))
    j = min(j, len(a) - 1)
    level = float(a[j])
    chosen = []
    acc = 0.0
    k = 0
    while k < len(a) and a[k] > level:
        chosen.append(int(order[k]))
        acc += w[k]
        k += 1
    eq_positions = [k2 for k2 in range(k, len(a)) if a[k2] == level]
    eq_positions.sort(key=lambda k2: order[k2])
    for k2 in eq_positions:
        if acc >= t - MEASURE_ATOL:
            break
        nxt = acc + w[k2]
        if nxt <= t + MEASURE_ATOL:
            chosen.append(int(order[k2]))
            acc = nxt
        else:
            raise NotAttainable(t, lower=acc, upper=nxt)
    if abs(acc - t) > MEASURE_ATOL:
        raise NotAttainable(t, lower=acc, upper=acc)
    return SuperlevelSet(indices=tuple(sorted(chosen)), target_measure=t, level=level)


# -- strategies ---------------------------------------------------------------------

# a small pool makes ties, zeros and inf markers frequent
VALUES = st.one_of(
    st.sampled_from((0.0, -0.0, 1.0, -1.0, 2.5, INF, -INF)),
    st.floats(-1e3, 1e3, allow_nan=False),
)
WEIGHTS = st.one_of(
    st.sampled_from((0.25, 0.5, 1.0, 3.0)),
    st.floats(1e-3, 10.0),
)


@st.composite
def samples(draw):
    """Samples with repeated (value, weight) pairs, in blocks up to 12 long."""
    pairs = draw(st.lists(st.tuples(VALUES, WEIGHTS), max_size=12))
    reps = draw(st.lists(st.integers(1, 12), min_size=len(pairs), max_size=len(pairs)))
    vals = [v for (v, _), r in zip(pairs, reps) for _ in range(r)]
    w = [x for (_, x), r in zip(pairs, reps) for _ in range(r)]
    return WeightedSamples(np.asarray(vals, dtype=float), np.asarray(w, dtype=float))


@st.composite
def tie_free_samples(draw):
    vals = draw(st.lists(VALUES, max_size=30, unique_by=abs))
    w = draw(st.lists(WEIGHTS, min_size=len(vals), max_size=len(vals)))
    return WeightedSamples(np.asarray(vals, dtype=float), np.asarray(w, dtype=float))


def permuted(u, perm):
    perm = np.asarray(perm, dtype=int)
    return WeightedSamples(u.values[perm], u.weights[perm])


def large_samples(n, ties, specials, seed):
    """n samples, drawn as the hypothesis strategies cannot: numpy's sort
    changes algorithm with size.  Tie-heavy values lie on a quarter grid
    with weights from a pool of 4; ``specials`` mixes in +-0.0 and +-inf."""
    rng = np.random.default_rng(seed)
    if ties:
        vals = np.round(rng.standard_normal(n) * 8.0) / 4.0
        w = rng.choice([0.25, 0.5, 1.0, 3.0], n)
    else:
        vals = rng.standard_normal(n) * rng.lognormal(0.0, 0.5, n)
        w = rng.uniform(0.5, 1.5, n)
    if specials:
        k = n // 40
        idx = rng.choice(n, 4 * k, replace=False).reshape(4, k)
        for row, v in zip(idx, (0.0, -0.0, INF, -INF)):
            vals[row] = v
    return WeightedSamples(vals, w)


LARGE = [pytest.param(n, ties, specials, id=f"{n}-{'ties' if ties else 'tie_free'}"
                      + ("-specials" if specials else ""))
         for n in (1_000, 20_000, 100_000) for ties in (False, True) for specials in (False, True)]


# -- decreasing rearrangement -------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(samples(), st.data())
def test_permuted_copy_rearranges_bit_identically(u, data):
    perm = data.draw(st.permutations(range(len(u))))
    f, g = decreasing_rearrangement(u), decreasing_rearrangement(permuted(u, perm))
    assert np.array_equal(f.edges, g.edges)
    assert np.array_equal(f.values, g.values)
    assert f.tail == g.tail == 0.0


@settings(max_examples=150, deadline=None)
@given(samples())
def test_equimeasurable_with_the_samples(u):
    f = decreasing_rearrangement(u)
    a = np.abs(u.values)
    finite = a[np.isfinite(a)]
    mids = (finite[:-1] + finite[1:]) / 2 if len(finite) > 1 else finite
    for s in np.concatenate(([0.0, INF], a, mids, finite * (1 + 1e-9))):
        assert gridfn_distribution(f, s) == pytest.approx(distribution(u, s), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(tie_free_samples())
def test_tie_free_matches_the_loop_bit_for_bit(u):
    f = decreasing_rearrangement(u)
    edges, vals = ref_decreasing_rearrangement(u)
    assert np.array_equal(f.values, vals)
    assert np.array_equal(f.edges, edges)


@settings(max_examples=150, deadline=None)
@given(samples())
def test_matches_the_loop(u):
    f = decreasing_rearrangement(u)
    edges, vals = ref_decreasing_rearrangement(u)
    assert np.array_equal(f.values, vals)
    assert f.edges[0] == edges[0] == 0.0
    np.testing.assert_allclose(f.edges, edges, rtol=RTOL, atol=0.0)


@settings(max_examples=150, deadline=None)
@given(samples())
def test_cells_are_sequential_block_sums_in_canonical_order(u):
    # the docstring's order: |value| descending, then weight descending;
    # each block summed left to right in Python floats
    pairs = sorted(zip(np.abs(u.values).tolist(), u.weights.tolist()), reverse=True)
    vals, widths = [], []
    for v, w in pairs:
        if vals and vals[-1] == v:
            widths[-1] += w
        else:
            vals.append(v)
            widths.append(w)
    if vals and vals[-1] == 0.0:
        vals.pop()
        widths.pop()
    edges = [0.0]
    for w in widths:
        edges.append(edges[-1] + w)
    f = decreasing_rearrangement(u)
    assert f.values.tolist() == vals
    assert f.edges.tolist() == edges


@pytest.mark.parametrize("n, ties, specials", LARGE)
def test_large_inputs_match_the_canonical_order_bit_for_bit(n, ties, specials):
    u = large_samples(n, ties, specials, seed=n)
    f = decreasing_rearrangement(u)
    vals, edges = ref_canonical_cells(u)
    assert f.values.tolist() == vals
    assert f.edges.tolist() == edges
    g = decreasing_rearrangement(permuted(u, np.random.default_rng(1).permutation(n)))
    assert np.array_equal(f.edges, g.edges)
    assert np.array_equal(f.values, g.values)


@pytest.mark.parametrize("vals", [[], [0.0], [0.0, -0.0, 0.0]])
def test_empty_and_all_zero_give_an_empty_gridfn(vals):
    u = WeightedSamples(vals, [1.5] * len(vals))
    f = decreasing_rearrangement(u)
    assert f.ncells == 0
    assert f.edges.tolist() == [0.0]
    assert f.tail == 0.0


# -- superlevel sets ----------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(samples(), st.data())
def test_superlevel_family_matches_the_loop(u, data):
    total = u.total_weight
    attainable = np.concatenate(([0.0], np.cumsum(u.weights[ref_sorted_desc(u)])))
    near = st.builds(lambda m, k: m + k * MEASURE_ATOL, st.sampled_from(attainable.tolist()),
                     st.sampled_from((-1.5, -0.5, 0.5, 1.5)))
    t = data.draw(st.one_of(
        st.sampled_from(attainable.tolist()),
        near,
        st.floats(0.0, total),
        st.sampled_from([total + 1.0, -1.0, MEASURE_ATOL / 2, total + MEASURE_ATOL / 2]),
    ))
    try:
        want = ref_superlevel_family(u, t)
    except (ValueError, NotAttainable) as e:
        with pytest.raises(type(e)) as got:
            superlevel_family(u, t)
        if isinstance(e, NotAttainable):
            assert (got.value.target, got.value.lower, got.value.upper) == \
                (e.target, e.lower, e.upper)
        return
    assert superlevel_family(u, t) == want



def assert_superlevel_matches_the_loop(u, t):
    try:
        want = ref_superlevel_family(u, t)
    except (ValueError, NotAttainable) as e:
        with pytest.raises(type(e)) as got:
            superlevel_family(u, t)
        if isinstance(e, NotAttainable):
            assert (got.value.target, got.value.lower, got.value.upper) == \
                (e.target, e.lower, e.upper)
        return
    assert superlevel_family(u, t) == want


@pytest.mark.parametrize("ties", [False, True], ids=["tie_free", "ties"])
def test_superlevel_family_matches_the_loop_on_5000_samples(ties):
    u = large_samples(5_000, ties, True, seed=5)
    rng = np.random.default_rng(6)
    attainable = np.concatenate(([0.0], np.cumsum(u.weights[ref_sorted_desc(u)])))
    picks = rng.choice(attainable, 12)
    ts = np.concatenate((picks, picks + 0.5 * MEASURE_ATOL, picks + 1.5 * MEASURE_ATOL,
                         rng.uniform(0.0, u.total_weight, 6), [u.total_weight]))
    for t in ts:
        assert_superlevel_matches_the_loop(u, float(t))
