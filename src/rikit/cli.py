"""Command-line front end.

Subcommands wrap the library one-to-one; artifacts are written as JSON or
CSV under --out.  Exit codes: 0 success, 2 validation error, 3 when a
solver stalls or a level scan exhausts its budget.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import demo as demos
from .errors import BudgetExhausted, RikitError, SolverStall
from .maximal import (
    density_criteria_report,
    indices_report,
    maximal_metric,
)
from .metric import (
    CurveFamily,
    MMS,
    capacity,
    minimal_hajlasz,
    minimal_upper_gradient,
    modulus,
    parse_generator,
)
from .rearrange import GridFn, WeightedSamples, decreasing_rearrangement
from .regularize import lipschitz_truncation
from .spaces import _FAMILIES, FundamentalFn, NormSpec, PowerLogPhi, PowerPhi, norm


# ---------------------------------------------------------------------------
# space shorthand
# ---------------------------------------------------------------------------

SHORTHAND_HELP = (
    "space shorthand: lp:P | lorentz:P,Q | lorentz-weak:P | marc:PHI | "
    "weak-marc:PHI | lambda:PHI | lambda-q:Q:PHI | marc-p:P:PHI | "
    "marc-p-loc:P:PHI | max:SPEC|SPEC|... | @spec.json (any family; "
    "orlicz_lux has no shorthand) ; "
    "PHI is power:ALPHA[,COEFF[,CAP]] or powerlog:ALPHA,BETA[,COEFF[,CAP]]"
)


_PHI_SHAPES = {"power": (FundamentalFn.power, "power:alpha[,coeff[,cap]]", 1, 3),
               "powerlog": (FundamentalFn.power_log,
                            "powerlog:alpha,beta[,coeff[,cap]]", 2, 4)}


def _parse_phi(text):
    kind, _, args = text.partition(":")
    if kind not in _PHI_SHAPES:
        raise ValueError(f"unknown shape {text!r} (use power:... or powerlog:...)")
    make, form, least, most = _PHI_SHAPES[kind]
    nums = [float(x) for x in args.split(",")] if args else []
    if not least <= len(nums) <= most:
        raise ValueError(f"{kind} takes the form {form}: {text!r}")
    return make(*nums)


def _number(x):
    """Shortest text that reads back as the same float; "3", not "3.0"."""
    text = repr(float(x))
    return text[:-2] if text.endswith(".0") else text


def _phi_shorthand(phi):
    if isinstance(phi, PowerPhi):
        head = ["power", phi.alpha]
    elif isinstance(phi, PowerLogPhi):
        head = ["powerlog", phi.alpha, phi.beta]
    else:
        return None
    # trailing defaults (coeff 1, cap inf) are left out
    nums = head[1:] + [phi.coeff, phi.cap]
    if math.isinf(phi.cap):
        nums = nums[:-2] if phi.coeff == 1.0 else nums[:-1]
    return f"{head[0]}:" + ",".join(map(_number, nums))


def _parts_shorthand(parts):
    texts = [spec_shorthand(s) for s in parts]
    return "|".join(texts) if all(texts) else None


_BY_PREFIX = {f.prefix: f for f in _FAMILIES.values() if f.prefix}
_PARSE_PART = {"phi": _parse_phi,
               "parts": lambda text: [parse_space(s) for s in text.split("|")]}
_PART_SHORTHAND = {"phi": _phi_shorthand, "parts": _parts_shorthand}


def parse_space(text) -> NormSpec:
    """Expand shorthand (or @file.json) into a norm specification."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return NormSpec.from_dict(json.load(fh))
    prefix, _, rest = text.partition(":")
    fam = _BY_PREFIX.get(prefix)
    if fam is None:
        raise ValueError(f"unknown space shorthand {text!r}; {SHORTHAND_HELP}")
    args = {}
    if fam.part is not None:
        rest, _, part = rest.partition(":") if fam.fields else ("", "", rest)
        args[fam.part] = _PARSE_PART[fam.part](part)
    values = rest.split(",") if fam.fields else []
    if len(values) != len(fam.fields):
        raise ValueError(f"{prefix} takes {len(fam.fields)} numbers: {text!r}")
    args.update(zip(fam.fields, map(float, values)))
    return fam.make(**args)


def spec_shorthand(spec: NormSpec):
    """Canonical shorthand for a spec, or None when not expressible."""
    fam = _FAMILIES[spec.family]
    pieces = [fam.prefix, ",".join(_number(getattr(spec, f)) for f in fam.fields)]
    if fam.part in _PART_SHORTHAND:
        pieces.append(_PART_SHORTHAND[fam.part](getattr(spec, fam.part)))
    return None if None in pieces else ":".join(p for p in pieces if p)


# ---------------------------------------------------------------------------
# IO helpers
# ---------------------------------------------------------------------------


def _sanitize(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.floating):
        return _sanitize(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def write_json(path: Path, obj):
    path.write_text(json.dumps(_sanitize(obj), indent=2, sort_keys=True) + "\n")


def write_csv(path: Path, header, rows):
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([x if not (isinstance(x, float) and math.isinf(x)) else "inf"
                        for x in row])


def load_space_file(text) -> MMS:
    if any(text.startswith(k + ":") for k in ("path", "grid", "tree")):
        return parse_generator(text)
    with open(text) as fh:
        return MMS.from_dict(json.load(fh))


def load_point_fn(path):
    with open(path) as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        vals = np.asarray(data["values"], dtype=float)
        if "weights" in data:
            return vals, np.asarray(data["weights"], dtype=float)
        return vals, None
    return np.asarray(data, dtype=float), None


def load_samples(path) -> WeightedSamples:
    with open(path) as fh:
        return WeightedSamples.from_dict(json.load(fh))


def load_curves(path) -> CurveFamily:
    with open(path) as fh:
        return CurveFamily.from_dict(json.load(fh))


def _fn_input(args):
    """A function input for norms: WeightedSamples or decreasing GridFn."""
    with open(args.fn) as fh:
        data = json.load(fh)
    if isinstance(data, dict) and "breakpoints" in data:
        return GridFn.from_dict(data)
    if isinstance(data, dict) and "weights" in data:
        return WeightedSamples.from_dict(data)
    raise ValueError("function file must carry values/weights or breakpoints/values")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_rearrange(args):
    u = load_samples(args.fn)
    star = decreasing_rearrangement(u)
    out = Path(args.out)
    if args.format == "csv":
        write_csv(out / "rearranged.csv", ("t_lo", "t_hi", "value"),
                  star.csv_rows())
    else:
        write_json(out / "rearranged.json", star.to_dict())
    print(f"cells={star.ncells} support={star.support_end!r}")
    return 0


def cmd_norm(args):
    spec = parse_space(args.space)
    u = _fn_input(args)
    value = norm(u, spec)
    print(repr(value))
    return 0


def cmd_maximal(args):
    space = load_space_file(args.space)
    vals, _ = load_point_fn(args.fn)
    out_vals = maximal_metric(space, vals, args.p)
    out = Path(args.out)
    write_json(out / "maximal.json", {"values": list(map(float, out_vals))})
    print(repr(float(np.max(out_vals))))
    return 0


def cmd_indices(args):
    spec = parse_space(args.space)
    s_grid = [float(x) for x in args.s_grid.split(",")] if args.s_grid else None
    rep = indices_report(spec, s_grid=s_grid)
    if args.format == "csv":
        write_csv(Path(args.out) / "indices.csv", ("s", "k", "h"),
                  [(s, k, h) for (s, k), (_, h) in
                   zip(rep.k_samples, rep.h_samples)])
    else:
        write_json(Path(args.out) / "indices.json", rep.to_dict())
    print(f"beta_upper={rep.beta_upper!r} alpha={rep.alpha_lower!r} "
          f"exact={rep.alpha_exact}")
    return 0


def cmd_criteria(args):
    spec = parse_space(args.space)
    rep = density_criteria_report(spec, p=args.p, complete_space=args.complete,
                                  delta=args.delta)
    if args.format == "csv":
        write_csv(Path(args.out) / "criteria.csv",
                  ("condition", "status", "certificate", "note"), rep.rows())
    else:
        write_json(Path(args.out) / "criteria.json", rep.to_dict())
    print(rep.table())
    return 0


def cmd_modulus(args):
    space = load_space_file(args.space)
    curves = load_curves(args.curves) if args.curves else CurveFamily.empty()
    res = modulus(space, curves, args.p, tol=args.tol)
    write_json(Path(args.out) / "modulus.json", res.to_dict())
    print(repr(res.optimum))
    return 0


def cmd_capacity(args):
    space = load_space_file(args.space)
    curves = load_curves(args.curves) if args.curves else CurveFamily.empty()
    fixed = [int(x) for x in args.set.split(",")]
    res = capacity(space, fixed, curves, args.p, tol=args.tol)
    write_json(Path(args.out) / "capacity.json", res.to_dict())
    print(repr(res.optimum))
    return 0


def cmd_hajlasz(args):
    space = load_space_file(args.space)
    vals, _ = load_point_fn(args.fn)
    res = minimal_hajlasz(space, vals, args.p, tol=args.tol)
    write_json(Path(args.out) / "hajlasz.json", res.to_dict())
    print(repr(res.optimum))
    return 0


def _write_scan_trace(out: Path, trace):
    write_csv(out / "scan_trace.csv",
              ("stage", "sigma", "test_a", "test_b", "pass"),
              [(r["stage"], r["sigma"],
                r.get("fn_gap", r.get("level_test")),
                r.get("grad_gap", r.get("grad_test")), r["pass"])
               for r in trace])


def cmd_regularize(args):
    space = load_space_file(args.space)
    vals, _ = load_point_fn(args.fn)
    spec = parse_space(args.spec)
    if args.hajlasz == "auto":
        h = minimal_hajlasz(space, vals, 2.0, tol=args.tol).minimizer
    else:
        h, _ = load_point_fn(args.hajlasz)
    out = Path(args.out)
    try:
        res = lipschitz_truncation(space, vals, h, spec, CurveFamily.empty(),
                                   args.eps, c_delta=args.c_delta)
    except BudgetExhausted as err:
        _write_scan_trace(out, err.trace)
        print(f"budget exhausted in stage {err.stage} at sigma="
              f"{err.sigma_reached!r}", file=sys.stderr)
        return 3
    write_json(out / "liptrunc.json", res.to_dict())
    _write_scan_trace(out, res.trace)
    print(f"norm_gap={res.norm_gap!r} sigma={res.sigma!r} "
          f"exceptional={len(res.exceptional)}")
    return 0


def cmd_generate(args):
    space = parse_generator(args.kind)
    write_json(Path(args.out) / "mms.json", space.to_dict())
    print(f"n={space.n} total_measure={space.total_measure!r}")
    return 0


def cmd_demo(args):
    out = Path(args.out)
    name = args.preset
    if name == "lorentz-embedding":
        rows, violations = demos.lorentz_embedding_preset(
            trials=args.trials, seed=args.seed)
        write_csv(out / "lorentz_embedding.csv",
                  ("q", "p", "ratio", "bound", "ok"), rows)
        print(f"trials={len(rows)} violations={violations}")
        return 0 if violations == 0 else 3
    if name == "herz-riesz":
        env = demos.herz_riesz_preset(p=args.p, seeds=args.seeds)
        write_json(out / "herz_envelopes.json", env)
        for fam, rec in env.items():
            print(f"{fam}: n={rec['n']} env=[{rec['env_min']:.4g}, "
                  f"{rec['env_max']:.4g}]")
        return 0
    if name == "criteria-sweep":
        rows = demos.criteria_sweep_preset(p0=args.p0, q0=args.q0)
        write_csv(out / "criteria_sweep.csv",
                  ("p", "complete", "verdict", "true_conditions"),
                  [(r["p"], r["complete"], r["verdict"],
                    "+".join(r["true_conditions"])) for r in rows])
        for r in rows:
            print(f"p={r['p']:g} complete={r['complete']} -> {r['verdict']}")
        return 0
    if name == "modulus-grid":
        rows = demos.modulus_grid_preset(rows=args.rows, cols=args.cols)
        write_csv(out / "modulus_grid.csv", ("p", "modulus", "kkt_residual"),
                  [(r["p"], r["modulus"], r["kkt_residual"]) for r in rows])
        for r in rows:
            print(f"p={r['p']:g} modulus={r['modulus']!r}")
        return 0
    if name == "lip-trunc-sweep":
        rows = demos.lip_trunc_sweep_preset(instances=args.instances,
                                            seed=args.seed)
        write_csv(out / "lip_trunc_sweep.csv",
                  ("instance", "kind", "spec", "eps", "norm_gap",
                   "exceptional", "gap_ok", "monotone_ok"),
                  [(r["instance"], r["kind"], r["spec"], r["eps"],
                    r["norm_gap"], r["exceptional"], r["gap_ok"],
                    r["monotone_ok"]) for r in rows])
        bad = [r for r in rows if not (r["gap_ok"] and r["monotone_ok"])]
        print(f"runs={len(rows)} failures={len(bad)}")
        return 0 if not bad else 3
    if name == "marcinkiewicz-gap":
        weak_rows, lp_rows, prof = demos.marcinkiewicz_gap_tables(
            alpha=args.alpha, dim=args.n, grid=args.grid)
        write_csv(out / "marcinkiewicz_gap.csv",
                  ("sigma", "fn_gap", "grad_norm"),
                  [(r.sigma, r.fn_gap, r.grad_norm) for r in weak_rows])
        write_csv(out / "marcinkiewicz_gap_lp.csv",
                  ("sigma", "fn_gap", "grad_norm"),
                  [(r.sigma, r.fn_gap, r.grad_norm) for r in lp_rows])
        weak_col = [r.grad_norm for r in weak_rows]
        lp_col = [r.grad_norm for r in lp_rows]
        print(f"weak gradient column min/first = "
              f"{min(weak_col) / weak_col[0]:.4f}")
        print(f"lp gradient column min/first = {min(lp_col) / lp_col[0]:.6f}")
        return 0
    raise ValueError(f"unknown preset {name!r}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache  # parsing leaves the parser as it was, so one serves every main call
def build_parser():
    ap = argparse.ArgumentParser(
        prog="ri-kit",
        description="rearrangement-invariant norms, maximal operators, and "
                    "modulus/capacity programs on finite metric measure spaces",
        epilog=SHORTHAND_HELP,
    )
    ap.add_argument("--seed", type=int, default=1234)
    ap.add_argument("--out", default=".", help="artifact directory")
    ap.add_argument("--format", choices=("csv", "json"), default="json")
    ap.add_argument("--tol", type=float, default=1e-8)
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("rearrange", help="decreasing rearrangement of samples")
    s.add_argument("--fn", required=True)
    s.set_defaults(run=cmd_rearrange)

    s = sub.add_parser("norm", help="evaluate a norm")
    s.add_argument("--space", required=True)
    s.add_argument("--fn", required=True)
    s.set_defaults(run=cmd_norm)

    s = sub.add_parser("maximal", help="metric-space maximal function")
    s.add_argument("--space", required=True)
    s.add_argument("--fn", required=True)
    s.add_argument("--p", type=float, default=1.0)
    s.set_defaults(run=cmd_maximal)

    s = sub.add_parser("indices", help="Boyd/Zippin index report")
    s.add_argument("--space", required=True)
    s.add_argument("--s-grid", default=None)
    s.set_defaults(run=cmd_indices)

    s = sub.add_parser("criteria", help="density criteria report")
    s.add_argument("--space", required=True)
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--complete", action="store_true")
    s.add_argument("--delta", type=float, default=1.0)
    s.set_defaults(run=cmd_criteria)

    s = sub.add_parser("modulus", help="p-modulus of a curve family")
    s.add_argument("--space", required=True)
    s.add_argument("--curves", default=None)
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(run=cmd_modulus)

    s = sub.add_parser("capacity", help="Sobolev capacity of a point set")
    s.add_argument("--space", required=True)
    s.add_argument("--set", required=True, help="comma-separated indices")
    s.add_argument("--curves", default=None)
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(run=cmd_capacity)

    s = sub.add_parser("hajlasz", help="minimal pair-defined gradient")
    s.add_argument("--space", required=True)
    s.add_argument("--fn", required=True)
    s.add_argument("--p", type=float, required=True)
    s.set_defaults(run=cmd_hajlasz)

    s = sub.add_parser("regularize", help="Lipschitz truncation")
    s.add_argument("--space", required=True)
    s.add_argument("--fn", required=True)
    s.add_argument("--spec", required=True)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--hajlasz", default="auto")
    s.add_argument("--c-delta", type=float, default=None)
    s.set_defaults(run=cmd_regularize)

    s = sub.add_parser("generate", help="write a generated space")
    s.add_argument("kind", help="path:n | grid:m,n | tree:b,d")
    s.set_defaults(run=cmd_generate)

    s = sub.add_parser("demo", help="experiment presets")
    s.add_argument("preset", choices=("lorentz-embedding", "herz-riesz",
                                      "criteria-sweep", "modulus-grid",
                                      "lip-trunc-sweep", "marcinkiewicz-gap"))
    s.add_argument("--trials", type=int, default=10_000)
    s.add_argument("--seeds", type=int, default=100)
    s.add_argument("--instances", type=int, default=20)
    s.add_argument("--p", type=float, default=1.0)
    s.add_argument("--p0", type=float, default=2.0)
    s.add_argument("--q0", type=float, default=3.0)
    s.add_argument("--rows", type=int, default=6)
    s.add_argument("--cols", type=int, default=6)
    s.add_argument("--alpha", type=float, default=2.0)
    s.add_argument("--n", type=int, default=3)
    s.add_argument("--grid", type=int, default=200)
    s.set_defaults(run=cmd_demo)

    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return 2 if err.code not in (0, None) else 0
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        return args.run(args)
    except (SolverStall, BudgetExhausted) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except (RikitError, ValueError, OSError, KeyError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
