"""Rearrangement machinery: sort-based oracles and exactness properties."""

import math

import numpy as np
import pytest

from rikit.errors import NotAttainable
from rikit.rearrange import (
    GridFn,
    WeightedSamples,
    decreasing_rearrangement,
    distribution,
    gridfn_distribution,
    star_star,
    superlevel_family,
)

INF = math.inf


def ws(values, weights):
    return WeightedSamples(values, weights)


def random_samples(rng, n=None, with_negatives=True):
    n = n or rng.integers(1, 25)
    vals = rng.normal(size=n) * rng.uniform(0.5, 5)
    if not with_negatives:
        vals = np.abs(vals)
    w = rng.uniform(0.05, 3.0, size=n)
    return ws(vals, w)


# -- distribution -----------------------------------------------------------


def test_distribution_direct_sum():
    u = ws([1.0, 3.0], [0.5, 0.5])
    assert distribution(u, 2.0) == 0.5


def test_distribution_above_max_is_zero():
    u = ws([1.0, -4.0, 2.5], [1, 1, 1])
    assert distribution(u, 4.0) == 0.0
    assert distribution(u, 100.0) == 0.0


def test_distribution_constant_function():
    u = ws([2.0, 2.0, 2.0], [0.3, 0.5, 0.7])
    assert distribution(u, 1.0) == pytest.approx(1.5)


def test_distribution_right_continuous_non_increasing():
    rng = np.random.default_rng(7)
    u = random_samples(rng, 12)
    levels = np.sort(np.abs(u.values))
    prev = u.total_weight + 1
    probe = np.sort(
        np.concatenate(([0.0], levels, levels + 1e-9, [np.max(levels) * 2]))
    )
    for t in probe:
        d = distribution(u, t)
        assert d <= prev + 1e-15
        prev = d


def test_distribution_rejects_nan_t():
    with pytest.raises(ValueError):
        distribution(ws([1.0, 3.0], [0.5, 0.5]), math.nan)


def test_gridfn_distribution_rejects_nan_t():
    with pytest.raises(ValueError):
        gridfn_distribution(GridFn([0.0, 1.0], [2.0]), math.nan)


def test_gridfn_distribution_of_a_tail_above_t_is_inf():
    f = GridFn([0.0, 1.0], [2.0], 0.5)
    assert gridfn_distribution(f, 0.25) == INF
    assert gridfn_distribution(f, 0.5) == 1.0


def test_star_star_over_an_infinite_cell_is_inf():
    assert star_star(GridFn([0.0, 1.0, 2.0], [INF, 1.0]), 0.5) == INF


# -- decreasing rearrangement ------------------------------------------------


def test_rearrangement_two_steps():
    u = ws([1.0, 3.0], [0.5, 0.5])
    f = decreasing_rearrangement(u)
    assert np.allclose(f.edges, [0.0, 0.5, 1.0])
    assert np.allclose(f.values, [3.0, 1.0])
    assert f.tail == 0.0


def test_rearrangement_constant():
    u = ws([4.0, 4.0], [1.0, 2.5])
    f = decreasing_rearrangement(u)
    assert np.allclose(f.edges, [0.0, 3.5])
    assert np.allclose(f.values, [4.0])


def test_rearrangement_uses_absolute_value():
    u = ws([-2.0, 1.0], [1.0, 1.0])
    f = decreasing_rearrangement(u)
    assert np.allclose(f.edges, [0.0, 1.0, 2.0])
    assert np.allclose(f.values, [2.0, 1.0])


def test_equimeasurability_randomized():
    # distribution of the rearrangement (Lebesgue) equals distribution of u
    rng = np.random.default_rng(42)
    for _ in range(50):
        u = random_samples(rng)
        f = decreasing_rearrangement(u)
        for s in np.concatenate((np.abs(u.values), rng.uniform(0, 5, 4), [0.0])):
            assert gridfn_distribution(f, s) == pytest.approx(
                distribution(u, s), abs=1e-12
            )


def test_rearrangement_canonical_under_permutation():
    rng = np.random.default_rng(3)
    u = random_samples(rng, 15)
    perm = rng.permutation(len(u))
    v = ws(u.values[perm], u.weights[perm])
    f, g = decreasing_rearrangement(u), decreasing_rearrangement(v)
    assert np.array_equal(f.edges, g.edges)
    assert np.array_equal(f.values, g.values)


def test_cavalieri_principle():
    # ||u||_L1 = int_0^inf distribution = int_0^inf u*, to 1e-9 relative
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = random_samples(rng)
        l1 = float(np.sum(np.abs(u.values) * u.weights))
        f = decreasing_rearrangement(u)
        assert f.total_integral(1.0) == pytest.approx(l1, rel=1e-9)
        # quadrature oracle for the distribution-function integral
        levels = np.unique(np.concatenate(([0.0], np.abs(u.values))))
        riemann = 0.0
        for a, b in zip(levels[:-1], levels[1:]):
            riemann += distribution(u, 0.5 * (a + b)) * (b - a)
        assert riemann == pytest.approx(l1, rel=1e-9)


def test_monotone_rearrangement():
    rng = np.random.default_rng(5)
    for _ in range(30):
        u = random_samples(rng, 10)
        factor = rng.uniform(1.0, 2.0, size=10)
        v = ws(u.values * factor, u.weights)
        fu = decreasing_rearrangement(u)
        fv = decreasing_rearrangement(v)
        hi = min(fu.support_end, fv.support_end)
        ts = np.linspace(1e-6, hi, 40)
        assert np.all(fu.value_at(ts) <= fv.value_at(ts) + 1e-12)


def test_rearrangement_with_inf_values():
    u = ws([INF, 1.0], [0.5, 1.0])
    f = decreasing_rearrangement(u)
    assert f.values[0] == INF
    assert f.integral_to(0.25) == INF
    assert gridfn_distribution(f, 10.0) == pytest.approx(0.5)


# -- elementary maximal function ----------------------------------------------


def test_star_star_indicator():
    f = GridFn([0.0, 1.0], [1.0])
    assert star_star(f, 2.0) == pytest.approx(0.5)
    assert star_star(f, 0.5) == pytest.approx(1.0)


def test_star_star_constant():
    f = GridFn([0.0, 3.0], [2.5])
    for t in (0.1, 1.0, 3.0):
        assert star_star(f, t) == pytest.approx(2.5)


def test_star_star_rejects_nan_t():
    # the t > 0 guard must not let NaN through to a NaN average
    with pytest.raises(ValueError):
        star_star(GridFn([0.0, 1.0], [1.0]), math.nan)


def test_star_star_dominates_and_decreasing():
    rng = np.random.default_rng(9)
    for _ in range(20):
        u = random_samples(rng)
        f = decreasing_rearrangement(u)
        ts = np.linspace(1e-6, 1.5 * u.total_weight, 60)
        vals = np.array([star_star(f, t) for t in ts])
        assert np.all(np.diff(vals) <= 1e-10 * np.max(vals))
        assert np.all(vals >= f.value_at(ts) - 1e-12)


def test_star_star_subadditive():
    # (u+v)** <= u** + v** at every t
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = 12
        w = rng.uniform(0.1, 2.0, n)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        fu = decreasing_rearrangement(ws(a, w))
        fv = decreasing_rearrangement(ws(b, w))
        fs = decreasing_rearrangement(ws(a + b, w))
        for t in np.linspace(0.05, float(np.sum(w)), 25):
            assert star_star(fs, t) <= star_star(fu, t) + star_star(fv, t) + 1e-10


def test_star_star_quadrature_oracle():
    rng = np.random.default_rng(21)
    u = random_samples(rng, 8)
    f = decreasing_rearrangement(u)
    t = 0.7 * u.total_weight
    # midpoint quadrature on a fine grid as the independent oracle
    grid = np.linspace(0, t, 20001)
    mids = 0.5 * (grid[:-1] + grid[1:])
    oracle = float(np.sum(f.value_at(mids)) * (grid[1] - grid[0])) / t
    assert star_star(f, t) == pytest.approx(oracle, rel=2e-3)


# -- superlevel families -------------------------------------------------------


def test_superlevel_basic():
    u = ws([3.0, 1.0], [0.5, 0.5])
    s = superlevel_family(u, 0.5)
    assert s.indices == (0,)
    assert s.level == 3.0


def test_superlevel_empty_at_zero():
    u = ws([3.0, 1.0], [0.5, 0.5])
    s = superlevel_family(u, 0.0)
    assert s.indices == ()


def test_superlevel_tie_break_lowest_index():
    u = ws([2.0, 2.0], [1.0, 1.0])
    s = superlevel_family(u, 1.0)
    assert s.indices == (0,)
    assert s.level == 2.0


def test_superlevel_sandwich_property():
    rng = np.random.default_rng(17)
    for _ in range(40):
        u = random_samples(rng, 10)
        order = np.argsort(-np.abs(u.values))
        cw = np.cumsum(u.weights[order])
        k = rng.integers(0, len(cw))
        t = float(cw[k])
        s = superlevel_family(u, t)
        a = np.abs(u.values)
        inside = set(s.indices)
        for i in range(len(u)):
            if a[i] > s.level:
                assert i in inside
            if i in inside:
                assert a[i] >= s.level
        assert float(np.sum(u.weights[list(inside)])) == pytest.approx(t, abs=1e-9)


def test_superlevel_rejects_nan_t():
    # the range check must not let NaN through to every index
    with pytest.raises(ValueError):
        superlevel_family(ws([3.0, 1.0], [0.5, 0.5]), math.nan)


def test_superlevel_not_attainable():
    u = ws([1.0, 1.0], [1.0, 1.0])
    with pytest.raises(NotAttainable) as err:
        superlevel_family(u, 0.5)
    assert err.value.lower == pytest.approx(0.0)
    assert err.value.upper == pytest.approx(1.0)


# -- GridFn plumbing ------------------------------------------------------------


def test_gridfn_validation():
    with pytest.raises(ValueError):
        GridFn([0.0, 1.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        GridFn([0.5, 1.0], [1.0])
    with pytest.raises(ValueError):
        GridFn([0.0, 1.0], [-1.0])
    with pytest.raises(ValueError):
        GridFn([0.0, 1.0], [1.0], tail=INF)


def test_gridfn_roundtrip_and_csv():
    f = GridFn([0.0, 0.5, 2.0], [3.0, 1.0], tail=0.5)
    g = GridFn.from_dict(f.to_dict())
    assert np.array_equal(f.edges, g.edges)
    assert np.array_equal(f.values, g.values)
    assert f.tail == g.tail
    rows = f.csv_rows()
    assert rows == [(0.0, 0.5, 3.0), (0.5, 2.0, 1.0)]


def _integral_to_loop(f, t, power):
    # the scalar cell calculus GridFn.integral_to ran before it went through
    # integrals_at
    if t <= 0:
        return 0.0
    cum = np.concatenate(([0.0], np.cumsum(f.cell_integrals(power))))
    if t >= f.support_end:
        total = cum[-1]
        extra = t - f.support_end
        if extra > 0 and f.tail > 0:
            total += f.tail ** power * extra
        return float(total)
    i = int(np.searchsorted(f.edges, t, side="left"))
    v = f.values[i - 1]
    if not math.isfinite(v):
        return INF
    return float(cum[i - 1] + v ** power * (t - f.edges[i - 1]))


def test_integral_to_matches_scalar_loop():
    # exact at power 1; two ulps apart at most where numpy's array pow and
    # scalar pow round differently
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(0, 8))
        edges = np.concatenate(([0.0], np.cumsum(rng.uniform(0.1, 2.0, n))))
        vals = rng.uniform(0.0, 5.0, n)
        if n and rng.random() < 0.2:
            vals[rng.integers(n)] = INF
        f = GridFn(edges, vals, tail=rng.choice([0.0, rng.uniform(0.1, 1.0)]))
        ts = np.concatenate((edges, rng.uniform(-0.5, edges[-1] + 2.0, 6)))
        for t in ts.tolist():
            assert f.integral_to(t) == _integral_to_loop(f, t, 1.0)
            for power in (2.0, 2.5):
                got, want = f.integral_to(t, power), _integral_to_loop(f, t, power)
                assert got == want or abs(got - want) <= 2 * np.spacing(want)


def test_gridfn_integral_with_tail():
    f = GridFn([0.0, 1.0], [2.0], tail=1.0)
    assert f.integral_to(3.0) == pytest.approx(2.0 + 2.0)
    assert f.total_integral() == INF
