"""Edge cases: zero functions, infinite markers and tails."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rikit.cli import main
from rikit.rearrange import GridFn, WeightedSamples, superlevel_family
from rikit.spaces import FundamentalFn, NormSpec, OrliczN, norm

INF = math.inf

ALL_SPECS = [
    NormSpec.lp(1),
    NormSpec.lp(2),
    NormSpec.lorentz(3, 1),
    NormSpec.lorentz(2, 4),
    NormSpec.lorentz_weak(2),
    NormSpec.lambda_phi(FundamentalFn.power(0.5)),
    NormSpec.lambda_q(FundamentalFn.power(0.5), 2),
    NormSpec.marcinkiewicz(FundamentalFn.power(0.5)),
    NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5)),
    NormSpec.marcinkiewicz_p(FundamentalFn.power(0.25), 2),
    NormSpec.marcinkiewicz_p_loc(FundamentalFn.power(0.25), 2),
    NormSpec.orlicz_lux(OrliczN([1.0, 2.0], [1.0, 4.0])),
    NormSpec.intersection_max(NormSpec.lp(1), NormSpec.lp(3)),
]


def test_zero_function_has_zero_norm_everywhere():
    u = WeightedSamples([0.0, 0.0, 0.0], [1.0, 0.5, 2.0])
    for spec in ALL_SPECS:
        assert norm(u, spec) == 0.0, spec.family


def test_infinite_value_diverges_in_integral_families():
    u = WeightedSamples([INF, 1.0], [0.5, 1.0])
    for spec in ALL_SPECS:
        val = norm(u, spec)
        assert val == INF, spec.family


def test_positive_tail_diverges_where_it_must():
    f = GridFn([0.0, 1.0], [2.0], tail=1.0)
    divergent = [
        NormSpec.lp(2),
        NormSpec.lorentz(3, 1),
        NormSpec.lorentz_weak(2),
        NormSpec.lambda_q(FundamentalFn.power(0.5), 2),
        NormSpec.marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.weak_marcinkiewicz(FundamentalFn.power(0.5)),
        NormSpec.orlicz_lux(OrliczN([1.0, 2.0], [1.0, 4.0])),
    ]
    for spec in divergent:
        assert norm(f, spec) == INF, spec.family
    # capped shapes tame the tail for the Stieltjes-type norm
    capped = NormSpec.lambda_phi(FundamentalFn.power(0.5, cap=4.0))
    assert math.isfinite(norm(f, capped))
    assert norm(f, NormSpec.lp(INF)) == 2.0


def test_superlevel_at_full_measure():
    u = WeightedSamples([3.0, 1.0, 2.0], [0.5, 0.25, 1.0])
    s = superlevel_family(u, u.total_weight)
    assert s.indices == (0, 1, 2)


def test_lorentz_weak_quasi_triangle_factor_two():
    # the weak quasi-norm satisfies the 2-quasi-triangle inequality
    rng = np.random.default_rng(5)
    spec = NormSpec.lorentz_weak(2)
    for _ in range(50):
        n = 8
        w = rng.uniform(0.2, 1.5, n)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        na = norm(WeightedSamples(a, w), spec)
        nb = norm(WeightedSamples(b, w), spec)
        ns = norm(WeightedSamples(a + b, w), spec)
        assert ns <= 2.0 * (na + nb) + 1e-12


def test_normed_families_triangle_inequality():
    rng = np.random.default_rng(6)
    specs = [s for s in ALL_SPECS if not s.quasi_only
             and s.family != "orlicz_lux"]
    for _ in range(50):
        n = 8
        w = rng.uniform(0.2, 1.5, n)
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        for spec in specs:
            na = norm(WeightedSamples(a, w), spec)
            nb = norm(WeightedSamples(b, w), spec)
            ns = norm(WeightedSamples(a + b, w), spec)
            assert ns <= (na + nb) * (1 + 1e-10), spec.family


def test_norm_of_non_decreasing_gridfn_rearranges():
    bumpy = GridFn([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 2.0])
    sorted_fn = GridFn([0.0, 1.0, 2.0, 3.0], [3.0, 2.0, 1.0])
    for spec in ALL_SPECS:
        assert norm(bumpy, spec) == pytest.approx(norm(sorted_fn, spec),
                                                  rel=1e-12), spec.family


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.0, 10.0)),
                      min_size=1, max_size=20))
# lorentz(2, 4) took pow of the strided values one ulp apart
@example(cells=list(zip([1.8, 1.7, 2.8, 1.2, 0.6, 2.6], [9.0, 7.9, 6.4, 6.1, 2.1, 0.6])))
# a one-cell view keeps stride -8, since numpy flags it contiguous
@example(cells=[(0.1015625, 2.2124109221884964)])
def test_norm_ignores_the_memory_layout_of_values(cells):
    widths, vals = np.array(cells).T
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    strided = np.sort(vals)[::-1]
    for spec in ALL_SPECS:
        got = norm(GridFn(edges, strided), spec)
        want = norm(GridFn(edges, strided.copy()), spec)
        assert float(got).hex() == float(want).hex(), spec.family


def test_cli_norm_accepts_gridfn_file(tmp_path, capsys):
    f = GridFn([0.0, 0.5, 1.5], [2.0, 1.0])
    path = tmp_path / "g.json"
    path.write_text(json.dumps(f.to_dict()))
    rc = main(["--out", str(tmp_path), "norm", "--space", "lp:2",
               "--fn", str(path)])
    assert rc == 0
    assert capsys.readouterr().out.strip() == repr(norm(f, NormSpec.lp(2)))


def test_cli_csv_formats(tmp_path):
    rc = main(["--out", str(tmp_path), "--format", "csv", "criteria",
               "--space", "lp:2", "--p", "1"])
    assert rc == 0
    lines = (tmp_path / "criteria.csv").read_text().splitlines()
    assert lines[0] == "condition,status,certificate,note"
    assert len(lines) >= 10
    rc = main(["--out", str(tmp_path), "--format", "csv", "indices",
               "--space", "lp:2"])
    assert rc == 0
    assert (tmp_path / "indices.csv").read_text().startswith("s,k,h")
