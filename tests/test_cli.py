"""CLI surface: golden equivalence with library calls, formats, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_spaces import CAP_U, CAPPED_SPECS

import rikit.cli as cli
import rikit.maximal as maximal
from rikit.cli import SHORTHAND_HELP, main, parse_space, spec_shorthand, write_json
from rikit.metric import CurveFamily, Curve, minimal_hajlasz, path_space
from rikit.rearrange import GridFn, WeightedSamples, decreasing_rearrangement
from rikit.spaces import _FAMILIES, FundamentalFn, NormSpec, norm


@pytest.fixture
def sample_fn(tmp_path):
    u = WeightedSamples([3.0, -1.0, 2.0, 0.5], [0.5, 1.0, 0.25, 2.0])
    path = tmp_path / "u.json"
    path.write_text(json.dumps(u.to_dict()))
    return u, path


@pytest.fixture
def sample_space(tmp_path):
    s = path_space(5)
    path = tmp_path / "mms.json"
    path.write_text(json.dumps(s.to_dict()))
    return s, path


# -- shorthand round-trips -----------------------------------------------------


@pytest.mark.parametrize("text", [
    "lp:2",
    "lorentz:3,1",
    "lorentz-weak:2.5",
    "marc:power:0.5",
    "weak-marc:power:0.5",
    "lambda:power:0.5",
    "lambda-q:2:power:0.5",
    "marc-p:2:power:0.25",
    "marc-p-loc:2:power:0.25",
    "max:lp:2|lp:4",
    "lambda:powerlog:0.4,1,2",
    "marc:powerlog:0.4,1,2,0.05",
])
def test_shorthand_roundtrip(text):
    spec = parse_space(text)
    again = spec_shorthand(spec)
    assert again == text
    # and expansion of the round-trip is the same space
    u = WeightedSamples([1.0, 2.0], [1.0, 0.5])
    assert norm(u, parse_space(again)) == norm(u, spec)


_CAPS = st.floats(0.01, 100.0) | st.just(math.inf)
_SHAPES = (st.builds(FundamentalFn.power, st.floats(0.0, 1.0), st.floats(0.01, 10.0), _CAPS)
           | st.builds(FundamentalFn.power_log, st.floats(0.01, 0.99), st.floats(-3.0, 3.0),
                       st.floats(0.01, 10.0), _CAPS))
_EXPONENTS = st.floats(1.0, 50.0)
_SIMPLE_SPECS = st.one_of(
    st.builds(NormSpec.lp, _EXPONENTS | st.just(math.inf)),
    st.builds(NormSpec.lorentz, _EXPONENTS, _EXPONENTS),
    st.builds(NormSpec.lorentz_weak, _EXPONENTS),
    st.builds(NormSpec.lambda_phi, _SHAPES),
    st.builds(NormSpec.lambda_q, _SHAPES, st.floats(1.0, 4.0)),
    st.builds(NormSpec.marcinkiewicz, _SHAPES),
    st.builds(NormSpec.weak_marcinkiewicz, _SHAPES),
    st.builds(NormSpec.marcinkiewicz_p, _SHAPES, st.floats(1.0, 4.0)),
    st.builds(NormSpec.marcinkiewicz_p_loc, _SHAPES, st.floats(1.0, 4.0)),
)
_SPECS = _SIMPLE_SPECS | st.builds(
    lambda parts: NormSpec.intersection_max(*parts),
    st.lists(_SIMPLE_SPECS, min_size=1, max_size=3))
_SHORTHAND_U = WeightedSamples([3, 1, 0.5], [0.01, 0.02, 0.5])


def test_shorthand_keeps_every_digit():
    # six significant digits moved this norm in its sixth digit
    text = "lambda:power:0.123456789"
    spec = parse_space(text)
    assert spec_shorthand(spec) == text
    assert norm(_SHORTHAND_U, parse_space(spec_shorthand(spec))) == norm(_SHORTHAND_U, spec)


@settings(max_examples=150, deadline=None)
@given(spec=_SPECS)
# a subnormal exponent: int_0^t s^(q alpha) ds/s is past the float range
@example(spec=NormSpec.lambda_q(FundamentalFn.power(5e-324, 1.0, math.inf), 1.0))
def test_shorthand_roundtrip_keeps_the_norm_bitwise(spec):
    again = parse_space(spec_shorthand(spec))
    assert again.to_dict() == spec.to_dict()
    assert norm(_SHORTHAND_U, again).hex() == norm(_SHORTHAND_U, spec).hex()


def test_parse_space_from_file(tmp_path):
    spec = NormSpec.lorentz(3, 2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = parse_space(f"@{path}")
    u = WeightedSamples([1.0, 2.0], [1.0, 0.5])
    assert norm(u, loaded) == norm(u, spec)


def test_every_shorthand_prefix_is_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    prefixes = [f.prefix for f in _FAMILIES.values() if f.prefix]
    assert len(prefixes) == 10
    for prefix in prefixes:
        # not preceded by a letter or dash, so "marc:" is not found in "weak-marc:"
        pattern = rf"(?<![\w-]){re.escape(prefix)}:"
        assert re.search(pattern, SHORTHAND_HELP), prefix
        assert re.search(pattern, readme), prefix
    for text in (SHORTHAND_HELP, readme):
        assert "orlicz_lux" in text and "@spec.json" in text


def test_parse_space_rejects_unknown():
    with pytest.raises(ValueError):
        parse_space("banach:2")


# -- golden equivalence ----------------------------------------------------------


def test_norm_cli_bit_identical(tmp_path, capsys, sample_fn):
    u, path = sample_fn
    rc = main(["--out", str(tmp_path), "norm", "--space", "lorentz:3,1",
               "--fn", str(path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert printed == repr(norm(u, NormSpec.lorentz(3, 1)))


def test_norm_cli_prints_plain_float(tmp_path, capsys, sample_fn):
    # the sup-type evaluators compute in numpy scalars; norm() returns float
    u, path = sample_fn
    rc = main(["--out", str(tmp_path), "norm", "--space", "weak-marc:power:0.5",
               "--fn", str(path)])
    assert rc == 0
    printed = capsys.readouterr().out.strip()
    assert float(printed) == norm(u, parse_space("weak-marc:power:0.5"))


def test_rearrange_cli_matches_library(tmp_path, capsys, sample_fn):
    u, path = sample_fn
    rc = main(["--out", str(tmp_path), "rearrange", "--fn", str(path)])
    assert rc == 0
    data = json.loads((tmp_path / "rearranged.json").read_text())
    lib = decreasing_rearrangement(u).to_dict()
    assert data == json.loads(json.dumps(lib))


def test_rearrange_csv_format(tmp_path, sample_fn):
    u, path = sample_fn
    rc = main(["--out", str(tmp_path), "--format", "csv", "rearrange",
               "--fn", str(path)])
    assert rc == 0
    lines = (tmp_path / "rearranged.csv").read_text().strip().splitlines()
    assert lines[0] == "t_lo,t_hi,value"
    assert len(lines) == 1 + decreasing_rearrangement(u).ncells


def test_modulus_cli(tmp_path, capsys, sample_space):
    s, spath = sample_space
    curves = CurveFamily([Curve((0, 1, 2))])
    cpath = tmp_path / "curves.json"
    cpath.write_text(json.dumps(curves.to_dict()))
    rc = main(["--out", str(tmp_path), "modulus", "--space", str(spath),
               "--curves", str(cpath), "--p", "2"])
    assert rc == 0
    from rikit.metric import modulus

    lib = modulus(s, curves, 2.0)
    assert capsys.readouterr().out.strip() == repr(lib.optimum)
    data = json.loads((tmp_path / "modulus.json").read_text())
    assert data["optimum"] == pytest.approx(lib.optimum)


def test_p1_programs_write_nothing(tmp_path, capfd, sample_space):
    # HiGHS logs to the console unless told not to, and the CLI's output is
    # read off stdout: a p = 1 solve, a solve HiGHS refuses and a CLI call
    # at p = 1 print only what the CLI means to print
    from rikit.metric import capacity, modulus

    s, spath = sample_space
    curves = CurveFamily([Curve((0, 1, 2)), Curve((1, 2, 3, 4))])
    lib = modulus(s, curves, 1.0)
    capacity(s, [0, 4], curves, 1.0)
    with pytest.raises(ValueError, match="finite"):
        minimal_hajlasz(path_space(3), [0.0, math.inf, 1.0], 1.0)
    assert capfd.readouterr() == ("", "")
    cpath = tmp_path / "curves.json"
    cpath.write_text(json.dumps(curves.to_dict()))
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-m", "rikit.cli", "--out", str(tmp_path),
                           "modulus", "--space", str(spath), "--curves", str(cpath), "--p", "1"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == repr(lib.optimum) + "\n"


def test_capacity_cli_empty_family(tmp_path, capsys, sample_space):
    s, spath = sample_space
    rc = main(["--out", str(tmp_path), "capacity", "--space", str(spath),
               "--set", "0", "--p", "2"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == repr(1.0)


def test_generate_and_maximal(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "generate", "path:4"])
    assert rc == 0
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"values": [0.0, 2.0, 0.0, 0.0]}))
    rc = main(["--out", str(tmp_path), "maximal", "--space",
               str(tmp_path / "mms.json"), "--fn", str(fn), "--p", "1"])
    assert rc == 0
    data = json.loads((tmp_path / "maximal.json").read_text())
    from rikit.maximal import maximal_metric

    lib = maximal_metric(path_space(4), [0.0, 2.0, 0.0, 0.0], 1)
    assert np.allclose(data["values"], lib)


def test_criteria_cli(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "criteria", "--space", "lorentz:3,2",
               "--p", "2", "--complete"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "density verdict: True" in text
    data = json.loads((tmp_path / "criteria.json").read_text())
    assert data["conditions"]["v"]["status"] == "true"
    # the complete-space relaxation fires too: phi^p = t^{2/3} is concave
    assert data["conditions"]["c-i"]["status"] == "true"


def test_criteria_cli_max_space_with_a_zero_power_law_exponent(tmp_path, capsys):
    # phi = max(t^{1/2}, t^{1/4}) at p = 2: phi^{-2} = 1/t on (1, 5), B = 2 + ln 5
    rc = main(["--out", str(tmp_path), "criteria", "--space", "max:lp:2|lorentz:4,2",
               "--p", "2", "--delta", "5"])
    assert rc == 0
    iv = json.loads((tmp_path / "criteria.json").read_text())["conditions"]["iv"]
    assert iv["status"] == "true"
    assert iv["certificate"]["B"] == pytest.approx(2 + math.log(5), rel=1e-12)


def test_criteria_cli_scales_out_a_tiny_coefficient(tmp_path, capsys):
    # c^-p passes the float range at c = 1e-200; B is that of coefficient 1
    b = []
    for coeff in ("1e-200", "1"):
        rc = main(["--out", str(tmp_path), "criteria", "--space",
                   f"lambda:power:0.3,{coeff},0.5", "--p", "2"])
        assert rc == 0
        b.append(json.loads((tmp_path / "criteria.json").read_text())
                 ["conditions"]["iv"]["certificate"]["B"])
    assert b[0] == pytest.approx(b[1], rel=1e-12)


def test_criteria_cli_scales_out_a_huge_lambda_q_coefficient(tmp_path, capsys):
    # W^q passes the float range at c = 1e200; the report is that of c = 1
    reports = []
    for coeff in ("1e200", "1"):
        rc = main(["--out", str(tmp_path), "criteria", "--space",
                   f"lambda-q:2:power:0.3,{coeff},0.5", "--p", "2"])
        assert rc == 0
        reports.append(json.loads((tmp_path / "criteria.json").read_text())["conditions"])
    huge, unit = reports
    assert {k: v["status"] for k, v in huge.items()} == {k: v["status"] for k, v in unit.items()}
    assert huge["iv"]["certificate"]["B"] == pytest.approx(unit["iv"]["certificate"]["B"],
                                                           rel=1e-13)


def test_criteria_cli_names_a_shape_outside_the_float_range(tmp_path, capsys):
    # phi(1) = 1e-300 * 1e-300^0.3 underflows to 0: a typed error, exit 2
    rc = main(["--out", str(tmp_path), "criteria", "--space",
               "lambda:power:0.3,1e-300,1e-300", "--p", "2"])
    assert rc == 2
    assert "outside the float range" in capsys.readouterr().err


def test_indices_cli(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "indices", "--space", "lp:2"])
    assert rc == 0
    data = json.loads((tmp_path / "indices.json").read_text())
    assert data["beta_upper"] == pytest.approx(0.5)
    assert data["alpha_lower"] == pytest.approx(0.5)


@pytest.mark.parametrize("space", ["lp:2", "marc:powerlog:0.5,1"])
@pytest.mark.parametrize("s_grid", ["nan", "inf", "1", "2,0.5"])
def test_indices_cli_rejects_s_not_finite_or_not_above_one(tmp_path, capsys, space, s_grid):
    rc = main(["--out", str(tmp_path), "indices", "--space", space, "--s-grid", s_grid])
    assert rc == 2
    assert "s grid" in capsys.readouterr().err
    assert not (tmp_path / "indices.json").exists()


def test_hajlasz_cli(tmp_path, capsys, sample_space):
    s, spath = sample_space
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"values": [0.0, 1.0, 2.0, 3.0, 4.0]}))
    rc = main(["--out", str(tmp_path), "hajlasz", "--space", str(spath),
               "--fn", str(fn), "--p", "2"])
    assert rc == 0
    from rikit.metric import minimal_hajlasz

    lib = minimal_hajlasz(s, [0.0, 1.0, 2.0, 3.0, 4.0], 2.0)
    assert capsys.readouterr().out.strip() == repr(lib.optimum)


def test_regularize_cli_success(tmp_path, capsys, sample_space):
    s, spath = sample_space
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"values": [0.0, 30.0, 0.5, 0.2, 0.1]}))
    rc = main(["--out", str(tmp_path), "regularize", "--space", str(spath),
               "--fn", str(fn), "--spec", "lp:2", "--eps", "0.25"])
    assert rc == 0
    data = json.loads((tmp_path / "liptrunc.json").read_text())
    assert data["norm_gap"] < 0.25
    assert (tmp_path / "scan_trace.csv").exists()


def test_regularize_cli_auto_hajlasz_uses_global_tol(tmp_path, sample_space,
                                                     monkeypatch):
    s, spath = sample_space
    fn = tmp_path / "fn.json"
    fn.write_text(json.dumps({"values": [0.0, 30.0, 0.5, 0.2, 0.1]}))
    tols = []

    def recording(space, vals, p, tol=1e-8):
        tols.append(tol)
        return minimal_hajlasz(space, vals, p, tol=tol)

    monkeypatch.setattr(cli, "minimal_hajlasz", recording)
    rc = main(["--out", str(tmp_path), "--tol", "1e-6", "regularize",
               "--space", str(spath), "--fn", str(fn), "--spec", "lp:2",
               "--eps", "0.25"])
    assert rc == 0
    assert tols == [1e-6]


def test_regularize_cli_budget_exhausted_exit_3(tmp_path, capsys):
    from rikit.demo import radial_profile

    prof = radial_profile(alpha=2.0, dim=3, grid=40, r_min=1e-40)
    spath = tmp_path / "mms.json"
    write_json(spath, prof.space.to_dict())
    fn = tmp_path / "fn.json"
    write_json(fn, {"values": list(map(float, prof.values))})
    hj = tmp_path / "h.json"
    write_json(hj, {"values": list(map(float, prof.hajlasz))})
    curves = tmp_path / "curves.json"
    write_json(curves, prof.curves.to_dict())
    rc = main(["--out", str(tmp_path), "regularize", "--space", str(spath),
               "--fn", str(fn), "--spec", "weak-marc:power:0.5",
               "--eps", "0.5", "--hajlasz", str(hj)])
    assert rc == 3
    assert (tmp_path / "scan_trace.csv").exists()


def test_validation_error_exit_2(tmp_path):
    rc = main(["--out", str(tmp_path), "norm", "--space", "nope:1",
               "--fn", "/does/not/exist.json"])
    assert rc == 2


@pytest.mark.parametrize("text", ["marc:power:0.5,1,-1", "lambda:power:0.5,1,0",
                                  "weak-marc:powerlog:0.4,1,1,-2"])
def test_cap_not_positive_exits_2(tmp_path, sample_fn, text):
    _, path = sample_fn
    rc = main(["--out", str(tmp_path), "norm", "--space", text, "--fn", str(path)])
    assert rc == 2


@pytest.mark.parametrize("spec", CAPPED_SPECS, ids=["powerlog", "orlicz-inverse"])
def test_finite_cap_survives_spec_json(tmp_path, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    loaded = parse_space(f"@{path}")
    assert loaded.to_dict() == spec.to_dict()
    assert norm(CAP_U, loaded) == norm(CAP_U, spec)


@pytest.mark.parametrize("argv,form", [
    (["norm", "--space", "marc:power:", "--fn", "u.json"], "power:alpha[,coeff[,cap]]"),
    (["generate", "grid:3"], "grid:m,n"),
    (["generate", "path:"], "path:n"),
    (["generate", "tree:2"], "tree:b,d"),
])
def test_wrong_number_count_exits_2(tmp_path, capsys, argv, form):
    rc = main(["--out", str(tmp_path)] + argv)
    assert rc == 2
    assert form in capsys.readouterr().err


@pytest.mark.parametrize("kind,form", [
    ("path:0", "path:n"), ("grid:0,3", "grid:m,n"), ("tree:2,-1", "tree:b,d"),
    ("tree:-1,2", "tree:b,d"), ("path:-2", "path:n"), ("grid:2,-1", "grid:m,n"),
])
def test_generate_without_points_exits_2(tmp_path, capsys, kind, form):
    rc = main(["--out", str(tmp_path), "generate", kind])
    assert rc == 2
    assert form in capsys.readouterr().err
    assert not (tmp_path / "mms.json").exists()


def test_demo_marcinkiewicz_gap(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "demo", "marcinkiewicz-gap",
               "--alpha", "2", "--n", "3", "--grid", "80"])
    assert rc == 0
    lines = (tmp_path / "marcinkiewicz_gap.csv").read_text().splitlines()
    header = lines[0].split(",")
    gi = header.index("grad_norm")
    col = [float(row.split(",")[gi]) for row in lines[1:]]
    assert min(col) >= 0.5 * col[0]
    lp_lines = (tmp_path / "marcinkiewicz_gap_lp.csv").read_text().splitlines()
    lp_col = [float(row.split(",")[gi]) for row in lp_lines[1:]]
    assert min(lp_col) < 0.01 * lp_col[0]


def test_demo_criteria_sweep(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "demo", "criteria-sweep",
               "--p0", "2", "--q0", "3"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "p=2 complete=False -> False" in text
    assert "p=2 complete=True -> True" in text


def test_demo_modulus_grid(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "demo", "modulus-grid",
               "--rows", "4", "--cols", "4"])
    assert rc == 0
    assert (tmp_path / "modulus_grid.csv").exists()


def test_demo_lorentz_embedding_small(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "demo", "lorentz-embedding",
               "--trials", "200"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "violations=0" in out


def test_demo_herz_small(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "demo", "herz-riesz", "--seeds", "3"])
    assert rc == 0
    env = json.loads((tmp_path / "herz_envelopes.json").read_text())
    for fam in ("path", "grid", "tree"):
        assert env[fam]["env_min"] > 0


def test_demo_lip_trunc_sweep_small(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "demo", "lip-trunc-sweep",
               "--instances", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "failures=0" in out


def test_criteria_incoherence_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(maximal, "criterion_B", lambda *args: math.inf)
    rc = main(["--out", str(tmp_path), "criteria", "--space", "lp:2",
               "--p", "1"])
    assert rc == 2
    assert "criteria coherence violated" in capsys.readouterr().err


# -- one parser per process -------------------------------------------------------------


def test_invalid_argv_exits_2_after_a_valid_call(tmp_path, capsys, sample_fn):
    _, path = sample_fn
    valid = ["--out", str(tmp_path), "norm", "--space", "lp:2", "--fn", str(path)]
    assert main(valid) == 0
    first = capsys.readouterr().out
    assert main(["--out", str(tmp_path), "norm", "--space", "lp:2"]) == 2
    assert main(["--out", str(tmp_path), "no-such-command"]) == 2
    assert main(["--out", str(tmp_path), "--format", "xml", "norm"]) == 2
    capsys.readouterr()
    assert main(valid) == 0
    assert capsys.readouterr().out == first


def test_calls_in_a_row_match_fresh_processes(tmp_path, capsys, sample_fn):
    # a flag or default of one call must not reach the next
    _, path = sample_fn
    calls = [["norm", "--space", "lorentz:3,1", "--fn", str(path)],
             ["--format", "csv", "criteria", "--space", "lorentz:3,2", "--p", "2", "--complete"],
             ["criteria", "--space", "lorentz:3,2", "--p", "2"],
             ["rearrange", "--fn", str(path)]]
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    for k, argv in enumerate(calls):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        assert main(["--out", str(here), *argv]) == 0
        proc = subprocess.run([sys.executable, "-m", "rikit.cli", "--out", str(fresh), *argv],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert capsys.readouterr().out == proc.stdout
        files = sorted(f.name for f in fresh.iterdir())
        assert sorted(f.name for f in here.iterdir()) == files
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes(), name
