"""CLI surface: golden equivalence with library calls, formats, exit codes."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

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
])
def test_shorthand_roundtrip(text):
    spec = parse_space(text)
    again = spec_shorthand(spec)
    assert again == text
    # and expansion of the round-trip is the same space
    u = WeightedSamples([1.0, 2.0], [1.0, 0.5])
    assert norm(u, parse_space(again)) == norm(u, spec)


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


def test_indices_cli(tmp_path, capsys):
    rc = main(["--out", str(tmp_path), "indices", "--space", "lp:2"])
    assert rc == 0
    data = json.loads((tmp_path / "indices.json").read_text())
    assert data["beta_upper"] == pytest.approx(0.5)
    assert data["alpha_lower"] == pytest.approx(0.5)


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
