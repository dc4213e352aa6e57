"""Spans around the library's public functions, for the traced run only.

``install`` wraps each target function and rebinds every name under which a
``rikit`` module holds it (its own module attribute, re-exports, and names
other modules imported, such as ``rikit.metric.constraint_generation``).
Wrappers pass arguments and return values through untouched; they only
record a span (name, start, end, parent, job id, attributes) in memory.
A target that no longer exists is reported as absent and skipped, so a
refactor that deletes or renames a function does not break the run.

``layer_metrics`` turns the spans into the per-layer metrics named in
``BENCHMARK.json``; ``METRICS`` also records which end-to-end metric, on
which workload, each of them should move.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from jobs import NEAR1

NORM_FAMILIES = ("lp", "lorentz_pq", "lorentz_pinf", "lambda_phi", "lambda_q_phi",
                 "marcinkiewicz", "weak_marcinkiewicz", "marcinkiewicz_p",
                 "marcinkiewicz_p_loc", "orlicz_lux", "intersection_max")
PRESETS = {"lorentz_embedding_preset": "lorentz-embedding",
           "herz_riesz_preset": "herz-riesz",
           "criteria_sweep_preset": "criteria-sweep",
           "modulus_grid_preset": "modulus-grid",
           "lip_trunc_sweep_preset": "lip-trunc-sweep",
           "marcinkiewicz_gap_tables": "marcinkiewicz-gap"}

# (name, unit, better, end-to-end metric it should move, workload)
METRICS = [
    ("rearrange.calls", "count", "lower", "wall_s", "halfline"),
    ("rearrange.samples", "count", "lower", "wall_s", "halfline"),
    ("rearrange.self_s", "s", "lower", "wall_s", "halfline"),
    ("rearrange.ns_per_sample", "ns", "lower", "wall_s", "halfline"),
    ("rearrange.exp", "slope", "lower", "wall_s", "halfline"),
    ("spaces.norm.calls", "count", "lower", "wall_s", "halfline"),
    *[(f"spaces.norm.{fam}.self_s", "s", "lower", "wall_s", "halfline")
      for fam in NORM_FAMILIES],
    ("spaces.embedding.self_s", "s", "lower", "job_p50_ms", "halfline"),
    ("maximal.metric.self_s", "s", "lower", "wall_s", "balls"),
    ("maximal.metric.balls", "count", "lower", "wall_s", "balls"),
    ("maximal.metric.ns_per_ball", "ns", "lower", "wall_s", "balls"),
    ("maximal.metric.exp", "slope", "lower", "wall_s", "balls"),
    ("maximal.herz_riesz.self_s", "s", "lower", "wall_s", "balls"),
    ("maximal.indices.self_s", "s", "lower", "job_p90_ms", "halfline"),
    ("maximal.criteria.self_s", "s", "lower", "job_p90_ms", "halfline"),
    ("metric.generate.self_s", "s", "lower", "setup_s", "balls"),
    ("metric.generate.exp", "slope", "lower", "setup_s", "balls"),
    ("metric.poincare.self_s", "s", "lower", "wall_s", "balls"),
    ("metric.programs.self_s", "s", "lower", "wall_s", "programs"),
    ("metric.rows", "count", "lower", "wall_s", "programs"),
    ("metric.hajlasz.exp", "slope", "lower", "job_p90_ms", "programs"),
    ("solver.cg.calls", "count", "lower", "wall_s", "programs"),
    ("solver.rounds", "count", "lower", "wall_s", "programs"),
    ("solver.subsolve.self_s", "s", "lower", "wall_s", "programs"),
    ("solver.lbfgs_iters", "count", "lower", "wall_s", "programs"),
    ("solver.active_rows", "count", "lower", "wall_s", "programs"),
    ("solver.useful_frac", "ratio", "higher", "wall_s", "programs"),
    ("solver.norm_sum.self_s", "s", "lower", "wall_s", "programs"),
    ("solver.kkt_max", "ratio", "lower", "wall_s", "programs"),
    ("solver.near1.self_s", "s", "lower", "near1_s", "programs"),
    ("regularize.sharp.self_s", "s", "lower", "wall_s", "balls"),
    ("regularize.sharp.exp", "slope", "lower", "wall_s", "balls"),
    ("regularize.mcshane.self_s", "s", "lower", "wall_s", "balls"),
    ("regularize.liptrunc.self_s", "s", "lower", "wall_s", "programs"),
    ("regularize.liptrunc.scan_steps", "count", "lower", "wall_s", "programs"),
    ("regularize.convergence.self_s", "s", "lower", "wall_s", "programs"),
    ("demo.lorentz-embedding.self_s", "s", "lower", "wall_s", "halfline"),
    ("demo.criteria-sweep.self_s", "s", "lower", "wall_s", "halfline"),
    ("demo.herz-riesz.self_s", "s", "lower", "wall_s", "balls"),
    ("demo.modulus-grid.self_s", "s", "lower", "wall_s", "programs"),
    ("demo.lip-trunc-sweep.self_s", "s", "lower", "wall_s", "programs"),
    ("demo.marcinkiewicz-gap.self_s", "s", "lower", "wall_s", "programs"),
    ("cli.calls", "count", "lower", "job_p50_ms", "all"),
    ("cli.self_s", "s", "lower", "job_p50_ms", "all"),
    ("cli.bytes_out", "B", "lower", "job_p50_ms", "all"),
    ("trace.overhead_frac", "ratio", "lower", "wall_s", "all"),
]


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs.get(name)


def _rows(a):
    return int(np.shape(a)[0])


def _cert(res):
    cert = getattr(res, "certificate", {}) or {}
    out = {}
    if isinstance(cert.get("kkt_residual"), (int, float)):
        out["kkt"] = float(cert["kkt_residual"])
    if isinstance(cert.get("iterations"), int):
        out["iters"] = cert["iterations"]
    return out


def _cg_result(res):
    out = _cert(res)
    active = res.certificate.get("active_set")
    if active is not None:
        duals = np.asarray(res.certificate["duals"])[active]
        out["active"] = len(active)
        out["useful"] = int(np.sum(duals > 0))
    return out


# (module, attribute, span name, attributes from the arguments, from the result)
TARGETS = [
    ("rikit.rearrange", "decreasing_rearrangement", "rearrange",
     lambda a, k: {"samples": len(_arg(a, k, 0, "u"))}, None),
    ("rikit.spaces", "norm", "spaces.norm",
     lambda a, k: {"family": _arg(a, k, 1, "spec").family}, None),
    ("rikit.spaces", "lorentz_embedding_ratio", "spaces.embedding", None, None),
    ("rikit.maximal", "maximal_metric", "maximal.metric",
     lambda a, k: {"fp": fingerprint(_arg(a, k, 0, "space"))}, None),
    ("rikit.maximal", "herz_riesz_ratios", "maximal.herz_riesz", None, None),
    ("rikit.maximal", "indices_report", "maximal.indices", None, None),
    ("rikit.maximal", "zippin_upper", "maximal.indices", None, None),
    ("rikit.maximal", "boyd_upper_lowerbound", "maximal.indices", None, None),
    ("rikit.maximal", "density_criteria_report", "maximal.criteria", None, None),
    ("rikit.metric", "path_space", "metric.generate",
     lambda a, k: {"path_n": _arg(a, k, 0, "n")}, None),
    ("rikit.metric", "grid_space", "metric.generate", None, None),
    ("rikit.metric", "tree_space", "metric.generate", None, None),
    ("rikit.metric", "parse_generator", "metric.generate", None, None),
    ("rikit.metric", "poincare_ratio", "metric.poincare", None, None),
    ("rikit.metric", "enumerate_balls", "metric.poincare", None, None),
    ("rikit.metric", "modulus", "metric.programs", None, None),
    ("rikit.metric", "minimal_upper_gradient", "metric.programs", None, None),
    ("rikit.metric", "minimal_hajlasz", "metric.programs", None, None),
    ("rikit.metric", "capacity", "metric.programs", None, None),
    ("rikit.solver", "constraint_generation", "solver.cg",
     lambda a, k: {"p": _arg(a, k, 3, "p"), "rows": _rows(_arg(a, k, 1, "rows"))},
     _cg_result),
    ("rikit.solver", "solve_separable_power", "solver.subsolve",
     lambda a, k: {"p": _arg(a, k, 3, "p")}, _cert),
    ("rikit.solver", "solve_norm_sum", "solver.norm_sum",
     lambda a, k: {"p": _arg(a, k, 4, "p"), "rows": _rows(_arg(a, k, 2, "b"))}, _cert),
    ("rikit.regularize", "sharp_maximal", "regularize.sharp", None, None),
    ("rikit.regularize", "mcshane_extend", "regularize.mcshane", None, None),
    ("rikit.regularize", "lipschitz_truncation", "regularize.liptrunc", None,
     lambda res: {"steps": len(res.trace)}),
    ("rikit.regularize", "truncation_convergence_report", "regularize.convergence",
     None, None),
    *[("rikit.demo", fn, f"demo.{preset}", None, None) for fn, preset in PRESETS.items()],
    ("rikit.cli", "main", "cli", None, None),
]


def fingerprint(space):
    return (space.n, float(np.sum(space.dist)), float(np.sum(space.weights)))


def ball_count(space):
    """Distinct closed balls: per center, the distinct distances in its row."""
    d = np.sort(space.dist, axis=1)
    return int(np.sum(np.diff(d, axis=1) > 0) + space.n)


class Recorder:
    """Spans kept in memory: [name, start, end, parent, job, attrs, pass].

    Setup spans carry pass -1 and job -1.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = -1
        self.pass_no = -1
        self.on = False

    def wrap(self, fn, name, pre, post):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            attrs = _safe(pre, args, kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, attrs,
                    self.pass_no]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            attrs.update(_safe(post, res))
            return res
        return wrapper


def _safe(fn, *args):
    if fn is None:
        return {}
    try:
        return fn(*args)
    except Exception as err:  # attributes are best effort; the call itself is untouched
        return {"attr_error": type(err).__name__}


class Installed:
    def __init__(self, recorder):
        self.recorder = recorder
        self.patches = []
        self.absent = []

    def __enter__(self):
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "rikit" or k.startswith("rikit."))]
        for mod_name, attr, span, pre, post in TARGETS:
            orig = getattr(sys.modules.get(mod_name), attr, None)
            if not callable(orig):
                self.absent.append(f"{mod_name}.{attr}")
                continue
            wrapper = self.recorder.wrap(orig, span, pre, post)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapper)
                        self.patches.append((mod, key, orig))
        return self

    def __exit__(self, *exc):
        for mod, key, orig in reversed(self.patches):
            setattr(mod, key, orig)
        self.patches.clear()
        return False


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------


def _slope(points):
    """Log-log slope over the sizes of (pass, size, seconds) points."""
    per = defaultdict(float)
    for ps, size, t in points:
        per[(ps, size)] += t
    by_size = defaultdict(list)
    for (_, size), t in per.items():
        by_size[size].append(t)
    sizes = sorted(s for s, ts in by_size.items() if np.median(ts) > 0)
    if len(sizes) < 3:
        return 0.0
    y = [math.log(float(np.median(by_size[s]))) for s in sizes]
    return float(np.polyfit(np.log(sizes), y, 1)[0])


def layer_metrics(spans, jobs, passes, balls, bytes_out, overhead):
    """Per-pass sums of the traced passes; setup spans (pass -1) count once."""
    n = len(spans)
    span_pass = [s[6] for s in spans]
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    excl = dur.copy()
    for i, s in enumerate(spans):
        if s[3] >= 0:
            excl[s[3]] -= dur[i]
    names = [s[0] for s in spans]
    attrs = [s[5] for s in spans]
    timed = [i for i in range(n) if span_pass[i] >= 0]
    setup = [i for i in range(n) if span_pass[i] < 0]
    per = 1.0 / max(passes, 1)

    def sel(name, pred=None, idx=timed):
        return [i for i in idx if names[i] == name and (pred is None or pred(i))]

    def self_s(name, pred=None, idx=timed):
        return float(sum(excl[i] for i in sel(name, pred, idx))) * (per if idx is timed else 1.0)

    def count(name, pred=None):
        return len(sel(name, pred)) * per

    def total(name, key):
        return sum(attrs[i].get(key, 0) for i in sel(name)) * per

    def ladder_points(name, ladder, inclusive=False):
        pts = []
        for i in sel(name, lambda i: jobs[spans[i][4]].ladder == ladder):
            pts.append((span_pass[i], jobs[spans[i][4]].size,
                        dur[i] if inclusive else excl[i]))
        return pts

    m = {}
    samples = total("rearrange", "samples")
    m["rearrange.calls"] = count("rearrange")
    m["rearrange.samples"] = samples
    m["rearrange.self_s"] = self_s("rearrange")
    m["rearrange.ns_per_sample"] = m["rearrange.self_s"] / samples * 1e9 if samples else 0.0
    m["rearrange.exp"] = _slope(ladder_points("rearrange", "samples"))
    m["spaces.norm.calls"] = count("spaces.norm")
    for fam in NORM_FAMILIES:
        m[f"spaces.norm.{fam}.self_s"] = self_s(
            "spaces.norm", lambda i, fam=fam: attrs[i].get("family") == fam)
    m["spaces.embedding.self_s"] = self_s("spaces.embedding")

    m["maximal.metric.self_s"] = self_s("maximal.metric")
    nballs = sum(balls.get(attrs[i].get("fp"), 0) for i in sel("maximal.metric")) * per
    m["maximal.metric.balls"] = nballs
    m["maximal.metric.ns_per_ball"] = (m["maximal.metric.self_s"] / nballs * 1e9
                                       if nballs else 0.0)
    m["maximal.metric.exp"] = _slope(ladder_points("maximal.metric", "path"))
    m["maximal.herz_riesz.self_s"] = self_s("maximal.herz_riesz")
    m["maximal.indices.self_s"] = self_s("maximal.indices")
    m["maximal.criteria.self_s"] = self_s("maximal.criteria")

    m["metric.generate.self_s"] = self_s("metric.generate", idx=setup)
    m["metric.generate.exp"] = _slope(
        [(0, attrs[i]["path_n"], excl[i])
         for i in sel("metric.generate", lambda i: "path_n" in attrs[i], setup)])
    m["metric.poincare.self_s"] = self_s("metric.poincare")
    m["metric.programs.self_s"] = self_s("metric.programs")
    m["metric.rows"] = total("solver.cg", "rows") + total("solver.norm_sum", "rows")
    m["metric.hajlasz.exp"] = _slope(
        ladder_points("metric.programs", "hajlasz_path", inclusive=True))

    cg = sel("solver.cg")
    cg_set = set(cg)
    m["solver.cg.calls"] = len(cg) * per
    m["solver.rounds"] = (len(sel("solver.subsolve", lambda i: spans[i][3] in cg_set))
                          / len(cg) if cg else 0.0)
    m["solver.subsolve.self_s"] = self_s("solver.subsolve")
    m["solver.lbfgs_iters"] = total("solver.subsolve", "iters")
    active = total("solver.cg", "active")
    m["solver.active_rows"] = active
    m["solver.useful_frac"] = total("solver.cg", "useful") / active if active else 0.0
    m["solver.norm_sum.self_s"] = self_s("solver.norm_sum")
    kkts = [attrs[i]["kkt"] for i in timed
            if names[i].startswith("solver.") and "kkt" in attrs[i]]
    m["solver.kkt_max"] = max(kkts, default=0.0)
    m["solver.near1.self_s"] = sum(
        self_s(name, lambda i: attrs[i].get("p") == NEAR1)
        for name in ("solver.cg", "solver.subsolve", "solver.norm_sum"))

    m["regularize.sharp.self_s"] = self_s("regularize.sharp")
    m["regularize.sharp.exp"] = _slope(ladder_points("regularize.sharp", "sharp_path"))
    m["regularize.mcshane.self_s"] = self_s("regularize.mcshane")
    m["regularize.liptrunc.self_s"] = self_s("regularize.liptrunc")
    m["regularize.liptrunc.scan_steps"] = total("regularize.liptrunc", "steps")
    m["regularize.convergence.self_s"] = self_s("regularize.convergence")
    for preset in PRESETS.values():
        m[f"demo.{preset}.self_s"] = self_s(f"demo.{preset}")
    m["cli.calls"] = count("cli")
    m["cli.self_s"] = self_s("cli")
    m["cli.bytes_out"] = bytes_out
    m["trace.overhead_frac"] = overhead
    return m


def write_spans(path, spans, absent):
    with open(path, "w") as fh:
        json.dump({"absent": absent,
                   "fields": ["name", "start", "end", "parent", "job", "attrs", "pass"],
                   "spans": [s[:5] + [{k: v for k, v in s[5].items() if k != "fp"}, s[6]]
                             for s in spans]}, fh)
