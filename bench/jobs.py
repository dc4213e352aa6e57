"""Job lists of the three workloads and the checks on each job's output.

A workload is built from a seed: the benchmark generates every input here
(sample arrays, point functions, curve families, CLI input files) and hands
the library only those inputs.  Each job is a zero-argument call that the
runner times, plus a check that runs outside the timed span and returns
``None`` when the output is correct or a one-line reason when it is not.

Sizes are fixed per workload; the seed only changes values, so the cost of
a job list barely depends on the seed.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import rikit
import rikit.cli
from rikit import (
    Curve,
    CurveFamily,
    FundamentalFn,
    GridFn,
    NormSpec,
    OrliczN,
    WeightedSamples,
)

P_VALUES = (1.0, 1.05, 2.0, 3.0)
NEAR1 = 1.05

# Size ladders: exponents in the traced run are fitted over these sizes.
LADDERS = {
    "samples": (1_000, 3_000, 10_000, 30_000, 100_000),
    "path": (100, 200, 400, 800),
    "sharp_path": (50, 100, 200),
    "hajlasz_path": (8, 12, 16, 20),
}


@dataclass
class Job:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    p: float | None = None
    ladder: str | None = None
    size: int | None = None
    out_dir: Path | None = None  # CLI artifact directory, for bytes_out


@dataclass
class Workload:
    jobs: list
    spaces: list = field(default_factory=list)  # spaces whose balls are counted


def rng_for(workload, seed):
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


# ---------------------------------------------------------------------------
# generic helpers
# ---------------------------------------------------------------------------


def _close(a, b, rel):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def samples(rng, m, ties=False):
    vals = rng.standard_normal(m) * rng.lognormal(0.0, 0.5, m)
    if ties:
        vals = np.round(vals * 4.0) / 4.0
    return WeightedSamples(vals, rng.uniform(0.5, 1.5, m))


def gridfn(rng, k, decreasing):
    vals = np.sort(rng.uniform(0.05, 5.0, k))[::-1]
    if not decreasing:
        vals = rng.permutation(vals)
    widths = rng.uniform(0.05, 1.5, k)
    return GridFn(np.concatenate(([0.0], np.cumsum(widths))), vals)


def lipschitz_fn(rng, dist, L, centers=4):
    """min_k (c_k + L d(x, x_k)): L-Lipschitz for the metric ``dist``."""
    n = len(dist)
    idx = rng.choice(n, size=min(centers, n), replace=False)
    c = rng.uniform(0.0, L * float(np.max(dist)) / 2.0, len(idx))
    return np.min(c[None, :] + L * dist[:, idx], axis=1)


def edge_coef(dist, curves):
    """Trapezoid coefficients of each curve, one row per curve."""
    rows = np.zeros((len(curves), len(dist)))
    for r, c in enumerate(curves):
        v = np.asarray(c.vertices)
        half = 0.5 * dist[v[:-1], v[1:]]
        np.add.at(rows[r], v[:-1], half)
        np.add.at(rows[r], v[1:], half)
    return rows


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def space_dict(space):
    return {"dist": space.dist.tolist(), "weights": space.weights.tolist()}


def curves_dict(curves):
    return {"curves": [list(c.vertices) for c in curves], "generator": "explicit"}


def cli_job(kind, argv, out_dir, check, p=None):
    """Run ``rikit.cli.main(argv)`` in process; the output is (code, stdout)."""
    argv = ["--out", str(out_dir)] + list(argv)

    def call():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = rikit.cli.main(argv)
        return code, buf.getvalue()

    def checked(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        return check(text)

    return Job("cli." + kind, call, checked, p=p, out_dir=Path(out_dir))


def read_json(path):
    return json.loads(Path(path).read_text())


def _lines(path):
    return len(Path(path).read_text().splitlines())


# ---------------------------------------------------------------------------
# checks shared by library and CLI jobs
# ---------------------------------------------------------------------------


def check_rearrangement(u, star, again):
    """``again``, the rearrangement of a permuted copy, is bit-identical."""
    if not (np.array_equal(star.edges, again.edges)
            and np.array_equal(star.values, again.values)
            and star.tail == again.tail):
        return "permuted copy rearranges differently"
    if not _close(float(star.edges[-1]), float(np.sum(u.weights[u.values != 0])), 1e-10):
        return "support length differs from the nonzero weight"
    return None


def lp_reference(u, p):
    if isinstance(u, GridFn):
        vals, w = u.values, np.diff(u.edges)
    else:
        vals, w = np.abs(u.values), u.weights
    return float(np.sum(w * vals ** p)) ** (1.0 / p)


def check_norm(u, spec, value):
    if not (isinstance(value, float) and not math.isnan(value) and value >= 0):
        return f"norm is {value!r}"
    star = u if isinstance(u, GridFn) and u.is_decreasing() else \
        rikit.decreasing_rearrangement(
            u if isinstance(u, WeightedSamples)
            else WeightedSamples(u.values, np.diff(u.edges)))
    if rikit.norm(star, spec) != value:
        return "norm(u) != norm(u*)"
    if spec.family == "lp" and not _close(value, lp_reference(u, spec.p), 1e-10):
        return "lp norm disagrees with the numpy formula"
    return None


def check_power_program(res, A, b):
    """kkt_residual <= tol, and A x >= b - tol recomputed here."""
    cert = res.certificate
    if not cert.get("kkt_residual", math.inf) <= res.tolerance:
        return f"kkt_residual {cert.get('kkt_residual')!r} > tol"
    x = np.asarray(res.minimizer, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        return "minimizer not finite and nonnegative"
    if len(b):
        scale = 1.0 + float(np.max(np.abs(b)))
        viol = float(np.max(b - A @ x))
        if viol > res.tolerance * scale * (1 + 1e-6):
            return f"constraint violated by {viol:.3g}"
    return None


def check_hajlasz(dist, u, res):
    """Pair inequality |u(x)-u(y)| <= d(x,y)(h(x)+h(y)), vectorized."""
    cert = res.certificate
    if not cert.get("kkt_residual", math.inf) <= res.tolerance:
        return f"kkt_residual {cert.get('kkt_residual')!r} > tol"
    h = np.asarray(res.minimizer, dtype=float)
    drop = np.abs(u[:, None] - u[None, :])
    viol = float(np.max(drop - dist * (h[:, None] + h[None, :])))
    if viol > res.tolerance * (1.0 + float(np.max(drop))) * (1 + 1e-6):
        return f"pair inequality violated by {viol:.3g}"
    return None


def check_capacity(dist, fixed, curves, res):
    cert = res.certificate
    if not cert.get("kkt_residual", math.inf) <= res.tolerance:
        return f"kkt_residual {cert.get('kkt_residual')!r} > tol"
    n = len(dist)
    z = np.asarray(res.minimizer, dtype=float)
    u, g = z[:n], z[n:]
    if np.any(u[list(fixed)] < 1.0 - 1e-9) or np.any(g < -1e-12):
        return "lower bounds violated"
    A = edge_coef(dist, curves)
    ends = np.array([(c.vertices[0], c.vertices[-1]) for c in curves])
    viol = float(np.max(np.abs(u[ends[:, 0]] - u[ends[:, 1]]) - A @ g))
    if viol > res.tolerance * (1 + 1e-6):
        return f"upper-gradient constraint violated by {viol:.3g}"
    return None


def check_lipschitz(dist, w, L, rel=1e-12):
    excess = np.abs(w[:, None] - w[None, :]) - L * dist
    if float(np.max(excess)) > rel * (1.0 + L * float(np.max(dist))):
        return "output is not L-Lipschitz"
    return None


# ---------------------------------------------------------------------------
# halfline: rearrange, spaces and the half-line part of maximal
# ---------------------------------------------------------------------------


# Fixed shapes: the cost of an index or density report swings by 50x with
# the exponent of the shape, which would make the cost depend on the seed.
POWER_TXT = "power:0.6"
POWER = FundamentalFn.power(0.6)
POWERLOG = FundamentalFn.power_log(0.5, 1.0)
REPORT_SHAPES = [FundamentalFn.power_log(a, b) for a in (0.3, 0.5, 0.7) for b in (0.5, 1.0)]


def build_halfline(seed, work):
    rng = rng_for("halfline", seed)
    jobs = []
    specs = [NormSpec.lp(p) for p in P_VALUES] + [
        NormSpec.lorentz(3.0, 2.0),
        NormSpec.lorentz_weak(2.0),
        NormSpec.lambda_phi(POWER),
        NormSpec.lambda_q(POWER, 2.0),
        NormSpec.lambda_q(POWERLOG, 2.0),
        NormSpec.marcinkiewicz(POWER),
        NormSpec.weak_marcinkiewicz(POWER),
        NormSpec.marcinkiewicz_p(POWER, 2.0),
        NormSpec.marcinkiewicz_p(POWER, NEAR1),
        NormSpec.marcinkiewicz_p(POWERLOG, 2.0),
        NormSpec.marcinkiewicz_p_loc(POWER, 2.0),
        NormSpec.orlicz_lux(OrliczN([1.0, 2.0, 4.0], [1.0, 3.0, 10.0])),
        NormSpec.intersection_max(NormSpec.lp(2.0), NormSpec.lorentz(3.0, 1.0)),
    ]

    def norm_job(u, spec):
        return Job("norm", lambda: rikit.norm(u, spec),
                   lambda v: check_norm(u, spec, v),
                   p=NEAR1 if spec.p == NEAR1 else None)

    def rearr_job(u, ladder=None, size=None):
        perm = rng.permutation(len(u))
        # computed once, at the first check, and compared with every pass
        again = functools.cache(lambda: rikit.decreasing_rearrangement(
            WeightedSamples(u.values[perm], u.weights[perm])))
        return Job("rearrange", lambda: rikit.decreasing_rearrangement(u),
                   lambda star: check_rearrangement(u, star, again()),
                   ladder=ladder, size=size)

    small = [samples(rng, m, ties=(m % 256 == 0)) for m in (128, 256, 384, 512)]
    grids = [gridfn(rng, k, decreasing=(k % 2 == 0)) for k in (3, 6, 9, 12)]
    for u in small:
        jobs.append(rearr_job(u))
    for u in small + grids:
        for spec in specs:
            jobs.append(norm_job(u, spec))

    # the inter-Lorentz embedding ratio on small decreasing functions
    for u in grids:
        for q, p in ((1.0, 2.0), (1.5, 4.0)):
            phi = POWER if q == 1.0 else POWERLOG

            def emb(u=u, phi=phi, q=q, p=p):
                return rikit.lorentz_embedding_ratio(u, phi, q, p)

            def emb_check(r):
                if not (r.ratio <= r.bound * (1 + 1e-10)):
                    return f"embedding ratio {r.ratio!r} above bound {r.bound!r}"
                return None

            jobs.append(Job("embedding", emb, emb_check))

    # index and density reports on power and power-log shapes
    def index_check(rep):
        # a quasi-concave shape has phi(st)/phi(t) in [1, s], so k(s) is
        # nondecreasing and the fundamental index lies in [0, 1]
        if rep.beta_upper is None or not -1e-9 <= rep.beta_upper <= 1 + 1e-9:
            return f"fundamental index {rep.beta_upper!r} outside [0, 1]"
        ks = [k for _, k in rep.k_samples]
        if any(b < a * (1 - 1e-12) for a, b in zip(ks, ks[1:])):
            return "k(s) decreases in s"
        if rep.alpha_lower is None or not math.isfinite(rep.alpha_lower):
            return "no Boyd index estimate"
        return None

    def criteria_check(rep):
        missing = [c for c in rikit.maximal.CONDITION_IDS if c not in rep.conditions]
        if missing or not isinstance(rep.density_verdict, bool):
            return f"malformed report (missing {missing})"
        return None

    index_specs = ([NormSpec.lorentz(3.0, 2.0), NormSpec.marcinkiewicz_p(POWER, 2.0),
                    NormSpec.lambda_phi(POWERLOG)]
                   + [NormSpec.marcinkiewicz(phi) for phi in REPORT_SHAPES]
                   + [NormSpec.marcinkiewicz_p(phi, q) for phi in REPORT_SHAPES
                      for q in (2.0, 3.0)])
    for spec in index_specs:
        jobs.append(Job("indices", lambda spec=spec: rikit.indices_report(spec),
                        index_check))
    # No density report on marcinkiewicz_p with a power-log shape: at p = 2
    # it raises a coherence AssertionError for about half of the shapes tried.
    for spec, p in ([(NormSpec.lorentz(3.0, 2.0), 2.0),
                     (NormSpec.lambda_phi(POWERLOG), 1.0),
                     (NormSpec.marcinkiewicz(POWERLOG), 1.0)]
                    + [(NormSpec.marcinkiewicz_p(FundamentalFn.power(a), 2.0), 2.0)
                       for a in (0.6, 0.7, 0.8)]):
        jobs.append(Job("criteria",
                        lambda spec=spec, p=p: rikit.density_criteria_report(spec, p),
                        criteria_check, p=p))

    # the size ladder: tie-free and tie-heavy samples up to 1e5
    for m in LADDERS["samples"]:
        for ties in (False, True):
            u = samples(rng, m, ties=ties)
            jobs.append(rearr_job(u, ladder=None if ties else "samples", size=m))
    big = samples(rng, 30_000)
    jobs.append(norm_job(big, NormSpec.lp(NEAR1)))
    jobs.append(norm_job(big, NormSpec.marcinkiewicz_p(POWER, NEAR1)))

    # CLI: rearrange, norm, indices, criteria and two presets
    files = work / "in"
    files.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    s_file = write_json(files / "samples.json", small[0].to_dict())
    g_file = write_json(files / "grid.json", grids[1].to_dict())

    def rearr_cli_check(u, fmt, d):
        star = rikit.decreasing_rearrangement(u)

        def check(text):
            if fmt == "json":
                got = GridFn.from_dict(read_json(d / "rearranged.json"))
                if not (np.array_equal(got.edges, star.edges)
                        and np.array_equal(got.values, star.values)):
                    return "CLI rearrangement differs from the library"
            elif _lines(d / "rearranged.csv") != star.ncells + 1:
                return "CLI csv has the wrong number of cells"
            return None
        return check

    ties_big = samples(rng, 10_000, ties=True)
    t_file = write_json(files / "ties.json", ties_big.to_dict())
    for k, (u, f, fmt) in enumerate(((small[0], s_file, "json"),
                                     (ties_big, t_file, "csv"))):
        d = out / f"rearrange{k}"
        jobs.append(cli_job("rearrange", ["--format", fmt, "rearrange", "--fn", f],
                            d, rearr_cli_check(u, fmt, d)))
    norm_cli = [("lp:2", small[0], s_file), ("lorentz:3,1", small[0], s_file),
                (f"marc:{POWER_TXT}", grids[1], g_file),
                ("max:lp:2|lorentz:3,1", grids[1], g_file),
                (f"lambda-q:2:{POWER_TXT}", small[0], s_file)]
    for k, (text, u, f) in enumerate(norm_cli):
        def norm_cli_check(stdout, text=text, u=u):
            want = repr(rikit.norm(u, rikit.cli.parse_space(text)))
            if stdout != want + "\n":
                return f"CLI norm printed {stdout.strip()!r}, library gives {want}"
            return None
        jobs.append(cli_job("norm", ["norm", "--space", text, "--fn", f],
                            out / f"norm{k}", norm_cli_check))

    d = out / "indices"
    jobs.append(cli_job("indices", ["indices", "--space", f"marc-p:2:{POWER_TXT}"], d,
                        lambda text, d=d: _index_in_range(read_json(d / "indices.json"))))
    d = out / "criteria"
    jobs.append(cli_job("criteria", ["criteria", "--space", "lorentz:3,2", "--p", "2",
                                     "--complete"], d,
                        lambda text: None if "density verdict" in text
                        else "no verdict printed"))
    preset_seed = str(int(rng.integers(1 << 30)))
    jobs.append(cli_job("demo", ["--seed", preset_seed, "demo", "lorentz-embedding",
                                 "--trials", "100"], out / "lorentz",
                        lambda text: None if "violations=0" in text
                        else f"embedding violations: {text.strip()}"))
    d = out / "sweep"
    jobs.append(cli_job("demo", ["demo", "criteria-sweep"], d,
                        lambda text, d=d: None
                        if _lines(d / "criteria_sweep.csv") == 9
                        else "criteria sweep has the wrong number of rows"))
    return Workload(jobs)


def _index_in_range(rep):
    beta = rep.get("beta_upper")
    if not (isinstance(beta, float) and -1e-9 <= beta <= 1 + 1e-9):
        return f"fundamental index {beta!r} outside [0, 1]"
    return None


# ---------------------------------------------------------------------------
# balls: the per-center ball sweeps of maximal, metric and regularize
# ---------------------------------------------------------------------------


def build_balls(seed, work):
    rng = rng_for("balls", seed)
    jobs = []
    ladder = {n: rikit.path_space(n) for n in LADDERS["path"]}
    grid10, grid15 = rikit.grid_space(10, 10), rikit.grid_space(15, 15)
    tree25, tree34 = rikit.tree_space(2, 5), rikit.tree_space(3, 4)
    path40, grid6, tree24 = rikit.path_space(40), rikit.grid_space(6, 6), rikit.tree_space(2, 4)
    # Small spaces of many sizes, evenly spread in log scale, so that the
    # latency percentiles fall among many similar jobs, not on a size gap.
    paths = [rikit.path_space(int(n)) for n in np.geomspace(40, 200, 24).round()]
    grids = [rikit.grid_space(r, r) for r in range(4, 13)]
    trees = [rikit.tree_space(2, d) for d in range(2, 7)] + [
        rikit.tree_space(3, d) for d in range(2, 5)]
    spaces = (list(ladder.values()) + paths + grids + trees
              + [grid10, grid15, tree25, tree34, path40, grid6, tree24])

    def maximal_job(space, p, ladder_name=None):
        u = rng.standard_normal(space.n)

        def check(out):
            if out.shape != u.shape or not np.all(out >= np.abs(u) * (1 - 1e-12)):
                return "maximal_metric(u) < |u| somewhere"
            return None
        return Job("maximal", lambda: rikit.maximal_metric(space, u, p), check,
                   p=p, ladder=ladder_name, size=space.n if ladder_name else None)

    def sharp_job(space, ladder_name=None):
        L = float(rng.uniform(0.5, 2.0))
        u = lipschitz_fn(rng, space.dist, L)

        def check(out):
            if not np.all(out <= 2.0 * L * (1 + 1e-9)) or np.any(out < 0):
                return f"sharp maximal above 2L = {2 * L!r}"
            return None
        return Job("sharp", lambda: rikit.sharp_maximal(space, u), check,
                   ladder=ladder_name, size=space.n if ladder_name else None)

    for n, space in ladder.items():
        jobs.append(maximal_job(space, 1.0, "path"))
    for space in (ladder[200], grid15, tree34):
        jobs.append(maximal_job(space, NEAR1))
    for k, space in enumerate(paths + grids + trees):
        jobs.append(maximal_job(space, (1.0, NEAR1, 2.0)[k % 3]))
    for n in LADDERS["sharp_path"]:
        jobs.append(sharp_job(ladder.get(n) or rikit.path_space(n), "sharp_path"))
    for _ in range(2):
        for space in (grid10, tree25):
            jobs.append(sharp_job(space))

    def poincare_job(space, p):
        u = rng.standard_normal(space.n)
        g = np.abs(rng.standard_normal(space.n)) + 0.1

        def check(out):
            ratio, ball = out
            d, w = space.dist, space.weights
            m = np.asarray(ball.members)
            bw = w[m]
            mean = np.sum(bw * u[m]) / np.sum(bw)
            lhs = np.sum(bw * np.abs(u[m] - mean)) / np.sum(bw)
            lam = np.nonzero(d[ball.center] <= ball.radius)[0]
            rhs = (np.sum(w[lam] * g[lam] ** p) / np.sum(w[lam])) ** (1.0 / p)
            want = lhs / (float(np.max(d[np.ix_(m, m)])) * rhs)
            if not _close(ratio, want, 1e-9):
                return f"worst-ball ratio {ratio!r} != {want!r} recomputed"
            return None
        return Job("poincare", lambda: rikit.poincare_ratio(space, u, g, p), check, p=p)

    for space in (path40, grid6, tree24):
        for p in (1.0, 2.0):
            jobs.append(poincare_job(space, p))

    def herz_job(space):
        u = rng.standard_normal(space.n)

        def check(hr):
            if not (0 < hr.min_ratio <= hr.max_ratio < math.inf):
                return f"ratio envelope [{hr.min_ratio!r}, {hr.max_ratio!r}]"
            return None
        return Job("herz_riesz", lambda: rikit.herz_riesz_ratios(space, u, 1.0), check,
                   p=1.0)

    for space in paths[4::4] + [grids[4], grids[6], tree25]:
        jobs.append(herz_job(space))

    def mcshane_job(space):
        L = float(rng.uniform(0.5, 2.0))
        v = lipschitz_fn(rng, space.dist, L)
        subset = np.sort(rng.choice(space.n, size=space.n // 3, replace=False))

        def check(w):
            if not np.allclose(w[subset], v[subset], rtol=1e-12, atol=1e-12):
                return "extension disagrees with v on the subset"
            return check_lipschitz(space.dist, w, L)
        return Job("mcshane", lambda: rikit.mcshane_extend(space, subset, v, L), check)

    for _ in range(13):
        for space in (ladder[200], grid15, tree34):
            jobs.append(mcshane_job(space))

    # CLI: generate, maximal and the herz-riesz preset
    files = work / "in"
    files.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    for kind, check_dist in (("path:60", lambda d: np.abs(np.subtract.outer(
            np.arange(60), np.arange(60))).astype(float)),
                             ("grid:8,8", lambda d: _manhattan(8, 8)),
                             ("tree:2,4", None)):
        d = out / kind.replace(":", "_").replace(",", "_")

        def gen_check(text, d=d, check_dist=check_dist):
            got = np.asarray(read_json(d / "mms.json")["dist"])
            if check_dist is not None and not np.array_equal(got, check_dist(got)):
                return "generated distances differ from the closed form"
            if check_dist is None and got.shape != (31, 31):
                return "tree:2,4 should have 31 vertices"
            return None
        jobs.append(cli_job("generate", ["generate", kind], d, gen_check))
    for k, (space, p) in enumerate(((ladder[100], 1.0), (grid10, 2.0))):
        u = rng.standard_normal(space.n)
        sp_file = write_json(files / f"space{k}.json", space_dict(space))
        fn_file = write_json(files / f"fn{k}.json", u.tolist())
        d = out / f"maximal{k}"

        def max_check(text, d=d, u=u):
            vals = np.asarray(read_json(d / "maximal.json")["values"])
            if not np.all(vals >= np.abs(u) * (1 - 1e-12)):
                return "CLI maximal below |u|"
            if text != repr(float(np.max(vals))) + "\n":
                return "CLI maximal printed a different maximum"
            return None
        jobs.append(cli_job("maximal", ["maximal", "--space", sp_file, "--fn", fn_file,
                                        "--p", str(p)], d, max_check, p=p))
    d = out / "herz"

    def herz_cli_check(text, d=d):
        env = read_json(d / "herz_envelopes.json")
        if not all(0 < r["env_min"] <= r["env_max"] for r in env.values()):
            return "herz-riesz envelope out of order"
        return None
    jobs.append(cli_job("demo", ["demo", "herz-riesz", "--seeds", "2"], d, herz_cli_check,
                        p=1.0))
    return Workload(jobs, spaces)


def _manhattan(rows, cols):
    r, c = np.divmod(np.arange(rows * cols), cols)
    return (np.abs(np.subtract.outer(r, r)) + np.abs(np.subtract.outer(c, c))).astype(float)


# ---------------------------------------------------------------------------
# programs: the solver-backed convex programs, split equally over p
# ---------------------------------------------------------------------------


def build_programs(seed, work):
    rng = rng_for("programs", seed)
    jobs = []
    path30, path20, path24, path16 = (rikit.path_space(n) for n in (30, 20, 24, 16))
    grid5, grid4, grid3 = rikit.grid_space(5, 5), rikit.grid_space(4, 4), rikit.grid_space(3, 3)
    tree24 = rikit.tree_space(2, 4)
    ladder = {n: rikit.path_space(n) for n in LADDERS["hajlasz_path"]}
    # modulus of all subpaths on paths of 6..14 points: jobs of graded cost
    # keep the latency percentiles among many similar jobs
    graded = [(rikit.path_space(n), CurveFamily.path_subpaths(n)) for n in range(6, 15)]

    crossings5 = CurveFamily([Curve(tuple(r * 5 + c for c in range(5))) for r in range(5)])
    lines4 = CurveFamily([Curve(tuple(r * 4 + c for c in range(4))) for r in range(4)]
                         + [Curve(tuple(r * 4 + c for r in range(4))) for c in range(4)])
    leaves = range(15, 31)
    tree_edges = CurveFamily([Curve((i, (i - 1) // 2)) for i in range(1, 31)])
    tree_paths = CurveFamily([Curve(_root_path(leaf)) for leaf in leaves]
                             + tree_edges.curves[:14])
    subpaths12 = CurveFamily.path_subpaths(12)
    subpaths16 = CurveFamily.path_subpaths(16)
    pairs_grid3 = CurveFamily.pairs(grid3)
    edges20 = CurveFamily.path_edges(20)
    edges16 = CurveFamily.path_edges(16)

    def modulus_job(space, curves, p, oracle=False):
        A = edge_coef(space.dist, curves)
        b = np.ones(len(curves))

        def check(res):
            why = check_power_program(res, A, b)
            if why is None and oracle:
                want, _ = rikit.single_curve_modulus_oracle(space, curves.curves[0], p)
                if not _close(res.optimum, want, 1e-6):
                    return f"single-curve modulus {res.optimum!r} != oracle {want!r}"
            return why
        return Job("modulus", lambda: rikit.modulus(space, curves, p), check, p=p)

    def upper_gradient_job(space, u, curves, p):
        A = edge_coef(space.dist, curves)
        b = np.array([abs(u[c.vertices[0]] - u[c.vertices[-1]]) for c in curves])
        return Job("upper_gradient",
                   lambda: rikit.minimal_upper_gradient(space, u, curves, p),
                   lambda res: check_power_program(res, A, b), p=p)

    def hajlasz_job(space, u, p, size=None):
        return Job("hajlasz", lambda: rikit.minimal_hajlasz(space, u, p),
                   lambda res: check_hajlasz(space.dist, u, res), p=p,
                   ladder="hajlasz_path" if size else None, size=size)

    def capacity_job(space, fixed, curves, p):
        return Job("capacity", lambda: rikit.capacity(space, fixed, curves, p),
                   lambda res: check_capacity(space.dist, fixed, curves, res), p=p)

    def liptrunc_job(space, u, h, p, eps):
        spec = NormSpec.lp(p)

        def check(res):
            if not res.norm_gap < eps:
                return f"norm_gap {res.norm_gap!r} >= eps {eps!r}"
            if float(np.max(np.abs(res.u_eps))) > res.sigma * (1 + 1e-12):
                return "truncation exceeds sigma"
            return check_lipschitz(space.dist, res.u_eps, res.lipschitz_constant, 1e-9)
        return Job("liptrunc",
                   lambda: rikit.lipschitz_truncation(space, u, h, spec,
                                                      CurveFamily.pairs(space), eps),
                   check, p=p)

    def convergence_job(space, u, curves, p):
        spec = NormSpec.lp(p)
        sigmas = np.geomspace(0.5, float(np.max(np.abs(u))), 6)

        def check(rows):
            fn = np.array([r.fn_gap for r in rows])
            gr = np.array([r.grad_norm for r in rows])
            if len(rows) != len(sigmas):
                return "wrong number of rows"
            if np.any(np.diff(fn) > 1e-12 * fn[0]) or np.any(np.diff(gr) > 1e-12 * gr[0]):
                return "truncation gaps grow with sigma"
            return None
        return Job("convergence",
                   lambda: rikit.truncation_convergence_report(space, u, curves, spec,
                                                               sigmas, solver_p=p),
                   check, p=p)

    # The gradient programs get inputs drawn once from a constant seed: their
    # solver iteration counts vary up to 3x with the values, which would make
    # the cost follow the seed.  The seed still draws the spikes, the single
    # curves and the CLI inputs.
    def ramp(n):
        return np.cumsum(np.random.default_rng(n).uniform(0.2, 1.0, n))

    def wave(n):
        return np.random.default_rng(n).standard_normal(n)

    def spike(n):
        u = rng.uniform(0.0, 1.0, n)
        u[int(rng.integers(n))] += float(rng.uniform(5.0, 10.0))
        return u

    files = work / "in"
    files.mkdir(parents=True, exist_ok=True)
    out = work / "out"
    path10, path14 = rikit.path_space(10), rikit.path_space(14)
    cli_files = {
        "path20": write_json(files / "path20.json", space_dict(path20)),
        "path16": write_json(files / "path16.json", space_dict(path16)),
        "path10": write_json(files / "path10.json", space_dict(path10)),
        "path14": write_json(files / "path14.json", space_dict(path14)),
        "sub12": write_json(files / "sub12.json", curves_dict(subpaths12)),
        "edges16": write_json(files / "edges16.json", curves_dict(edges16)),
    }

    for p in P_VALUES:
        jobs.append(modulus_job(path30, subpaths12, p))
        for space, curves in graded:
            jobs.append(modulus_job(space, curves, p))
        jobs.append(modulus_job(grid5, crossings5, p))
        jobs.append(modulus_job(tree24, tree_paths, p))
        a = int(rng.integers(0, 20))
        single = CurveFamily([Curve(tuple(range(a, a + int(rng.integers(3, 10)))))])
        jobs.append(modulus_job(path30, single, p, oracle=p > 1))
        row = int(rng.integers(5))
        jobs.append(modulus_job(grid5, CurveFamily([crossings5.curves[row]]), p,
                                oracle=p > 1))
        jobs.append(modulus_job(tree24, CurveFamily([tree_paths.curves[int(rng.integers(16))]]),
                                p, oracle=p > 1))
        jobs.append(upper_gradient_job(path16, ramp(16), subpaths16, p))
        jobs.append(upper_gradient_job(grid4, wave(16), lines4, p))
        jobs.append(upper_gradient_job(tree24, wave(31), tree_paths, p))
        for n, space in ladder.items():
            jobs.append(hajlasz_job(space, ramp(n), p, size=n))
        jobs.append(capacity_job(path20, (0, 1), edges20, p))
        jobs.append(capacity_job(grid3, (0, 4), pairs_grid3, p))
        jobs.append(capacity_job(tree24, (0,), tree_edges, p))
        for _ in range(2):
            u = spike(24)
            h = np.max(np.abs(u[:, None] - u[None, :]) / (2.0 * (path24.dist + np.eye(24))),
                       axis=1)
            for eps in (0.5, 0.1):
                jobs.append(liptrunc_job(path24, u, h, p, eps))
        jobs.append(convergence_job(path16, ramp(16), edges16, p))

        # the four program subcommands of the CLI at this p
        tag = f"{p:g}"
        pt = str(p)
        d = out / f"modulus{tag}"
        A = edge_coef(path20.dist, subpaths12)
        jobs.append(cli_job("modulus", ["modulus", "--space", cli_files["path20"],
                                        "--curves", cli_files["sub12"], "--p", pt], d,
                            _cli_program_check(d / "modulus.json", A, np.ones(len(A))),
                            p=p))
        d = out / f"capacity{tag}"
        jobs.append(cli_job("capacity", ["capacity", "--space", cli_files["path16"],
                                         "--set", "0,1", "--curves", cli_files["edges16"],
                                         "--p", pt], d,
                            _cli_capacity_check(d, path16.dist, (0, 1), edges16), p=p))
        u10 = ramp(10)
        fn10 = write_json(files / f"u10_{tag}.json", u10.tolist())
        d = out / f"hajlasz{tag}"
        jobs.append(cli_job("hajlasz", ["hajlasz", "--space", cli_files["path10"],
                                        "--fn", fn10, "--p", pt], d,
                            _cli_hajlasz_check(d, path10.dist, u10), p=p))
        u14 = spike(14)
        fn14 = write_json(files / f"u14_{tag}.json", u14.tolist())
        d = out / f"regularize{tag}"
        jobs.append(cli_job("regularize", ["regularize", "--space", cli_files["path14"],
                                           "--fn", fn14, "--spec", f"lp:{p:g}",
                                           "--eps", "0.5"], d,
                            lambda text, d=d: None
                            if read_json(d / "liptrunc.json")["norm_gap"] < 0.5
                            else "CLI truncation gap above eps", p=p))

    d = out / "modgrid"
    jobs.append(cli_job("demo", ["demo", "modulus-grid", "--rows", "4", "--cols", "4"], d,
                        lambda text, d=d: _csv_kkt_check(d / "modulus_grid.csv")))
    jobs.append(cli_job("demo", ["demo", "lip-trunc-sweep",
                                 "--instances", "1"], out / "liptrunc",
                        lambda text: None if "failures=0" in text
                        else f"lip-trunc-sweep: {text.strip()}"))
    d = out / "marcgap"
    jobs.append(cli_job("demo", ["demo", "marcinkiewicz-gap", "--grid", "40"], d,
                        lambda text, d=d: None
                        if _lines(d / "marcinkiewicz_gap.csv") == 17
                        else "marcinkiewicz-gap table has the wrong number of rows"))
    return Workload(jobs)


def _root_path(i):
    out = [i]
    while i:
        i = (i - 1) // 2
        out.append(i)
    return tuple(out)


def _result_from_json(path):
    data = read_json(path)
    cert = data["certificate"]
    return rikit.SolveResult(data["optimum"], np.asarray(data["minimizer"]), cert,
                             data["tolerance"])


def _cli_program_check(path, A, b):
    return lambda text: check_power_program(_result_from_json(path), A, b)


def _cli_capacity_check(d, dist, fixed, curves):
    return lambda text: check_capacity(dist, fixed, curves,
                                       _result_from_json(d / "capacity.json"))


def _cli_hajlasz_check(d, dist, u):
    return lambda text: check_hajlasz(dist, u, _result_from_json(d / "hajlasz.json"))


def _csv_kkt_check(path):
    lines = Path(path).read_text().splitlines()[1:]
    if len(lines) != 4 or any(float(row.split(",")[2]) > 1e-8 for row in lines):
        return "modulus-grid rows missing or uncertified"
    return None


GENERATORS = {"halfline": build_halfline, "balls": build_balls, "programs": build_programs}
