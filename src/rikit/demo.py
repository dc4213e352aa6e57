"""Experiment presets: generated instances and the counterexample profile.

Each preset is deterministic given its seed and returns plain rows ready
for CSV or JSON emission; the CLI wraps these functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted
from .maximal import density_criteria_report, herz_riesz_ratios
from .metric import (
    Curve,
    CurveFamily,
    MMS,
    grid_space,
    minimal_hajlasz,
    minimal_upper_gradient,
    modulus,
    path_space,
    tree_space,
)
from .rearrange import GridFn
from .regularize import lipschitz_truncation, truncation_convergence_report
from .spaces import FundamentalFn, NormSpec, lorentz_embedding_ratio

INF = math.inf


# ---------------------------------------------------------------------------
# the Marcinkiewicz obstruction profile
# ---------------------------------------------------------------------------


@dataclass
class RadialProfile:
    """Discrete radial model of the non-approximable function.

    Shells at geometric radii on [r_min, 1] carry the volume weights
    r_k^n - r_{k-1}^n; the profile is u(r) = f(r) - f(1) with
    f(r) = r / phi(r^n) for phi(t) = t^{1/alpha}, and the distance between
    shells is the radial gap.  ``hajlasz`` holds |f'| evaluated at the
    shells, which satisfies the pair inequality exactly because f is
    convex and decreasing.
    """

    space: MMS
    values: np.ndarray
    hajlasz: np.ndarray
    curves: CurveFamily
    alpha: float
    dim: int
    radii: np.ndarray


def radial_profile(alpha=2.0, dim=3, grid=200, r_min=1e-4) -> RadialProfile:
    if not alpha > 1:
        raise ValueError("alpha > 1 required")
    if not dim > alpha:
        raise ValueError("dim > alpha required for the obstruction shape")
    radii = np.geomspace(r_min, 1.0, grid)
    f = radii ** (1.0 - dim / alpha)
    u = f - f[-1]
    h = (dim / alpha - 1.0) * radii ** (-dim / alpha)
    edges_lo = np.concatenate(([0.0], radii[:-1]))
    weights = radii ** dim - edges_lo ** dim
    d = np.abs(radii[:, None] - radii[None, :])
    space = MMS(d, weights)
    curves = CurveFamily.path_edges(grid)
    return RadialProfile(space, u, h, curves, float(alpha), int(dim), radii)


def marcinkiewicz_gap_tables(alpha=2.0, dim=3, grid=200, steps=16):
    """Two convergence tables for the same profile.

    The weak-Marcinkiewicz table runs on levels capped below max|u| (the
    obstruction regime: superlevels of the profile never empty there);
    the L^2 comparison extends past max|u| where truncations converge.
    Both use one minimal upper gradient for the L^2 objective.
    """
    prof = radial_profile(alpha, dim, grid)
    g = minimal_upper_gradient(prof.space, prof.values, prof.curves, 2.0).minimizer
    u_max = float(np.max(np.abs(prof.values)))
    capped = np.geomspace(1.0, 0.8 * u_max, steps)
    extended = np.geomspace(1.0, 4.0 * u_max, steps)
    weak_spec = NormSpec.weak_marcinkiewicz(FundamentalFn.power(1.0 / alpha))
    lp_spec = NormSpec.lp(2)
    weak_rows = truncation_convergence_report(
        prof.space, prof.values, prof.curves, weak_spec, capped, gradient=g)
    lp_rows = truncation_convergence_report(
        prof.space, prof.values, prof.curves, lp_spec, extended, gradient=g)
    return weak_rows, lp_rows, prof


# ---------------------------------------------------------------------------
# randomized presets
# ---------------------------------------------------------------------------


def random_quasiconcave_phi(rng):
    if rng.random() < 0.5:
        return FundamentalFn.power(float(rng.uniform(0.05, 1.0)))
    k = int(rng.integers(2, 7))
    ts = np.cumsum(rng.uniform(0.1, 1.0, k))
    slopes = np.sort(rng.uniform(0.1, 3.0, k))[::-1]
    vals = np.cumsum(slopes * np.diff(np.concatenate(([0.0], ts))))
    return FundamentalFn.sampled(ts, vals)


def random_decreasing_gridfn(rng):
    k = int(rng.integers(1, 12))
    vals = np.sort(rng.uniform(0.02, 5.0, k))[::-1]
    widths = rng.uniform(0.02, 1.5, k)
    return GridFn(np.concatenate(([0.0], np.cumsum(widths))), vals)


def lorentz_embedding_preset(trials=10_000, seed=20240416, q_hi=8.0):
    """Randomized check of the inter-Lorentz embedding bound."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(trials):
        u = random_decreasing_gridfn(rng)
        phi = random_quasiconcave_phi(rng)
        q = float(rng.uniform(1.0, q_hi - 0.25))
        p = float(rng.uniform(q + 1e-3, q_hi))
        cases.append((u, phi, q, p))

    def run(case):
        u, phi, q, p = case
        r = lorentz_embedding_ratio(u, phi, q, p)
        return (q, p, r.ratio, r.bound, r.ratio <= r.bound * (1 + 1e-10))

    rows = [run(case) for case in cases]
    violations = sum(1 for row in rows if not row[4])
    return rows, violations


HERZ_FAMILIES = {
    "path": lambda: path_space(120),
    "grid": lambda: grid_space(10, 10),
    "tree": lambda: tree_space(2, 6),
}


def herz_riesz_preset(p=1.0, seeds=100):
    """Ratio envelopes per space family across seeded random functions."""
    out = {}
    for name, maker in HERZ_FAMILIES.items():
        space = maker()

        def run(seed):
            rng = np.random.default_rng(seed)
            u = rng.normal(size=space.n)
            hr = herz_riesz_ratios(space, u, p)
            return hr.min_ratio, hr.max_ratio

        pairs = [run(seed) for seed in range(seeds)]
        lows = [a for a, _ in pairs]
        highs = [b for _, b in pairs]
        out[name] = {
            "n": space.n,
            "env_min": min(lows),
            "env_max": max(highs),
            "seeds": seeds,
        }
    return out


def criteria_sweep_preset(p0=2.0, q0=3.0, p_values=(1.0, 1.5, 2.0, 3.0)):
    """Density verdict sweep over one Lorentz space."""
    spec = NormSpec.lorentz(p0, q0)
    rows = []
    for p in p_values:
        for complete in (False, True):
            rep = density_criteria_report(spec, p=p, complete_space=complete)
            rows.append({
                "p": p,
                "complete": complete,
                "verdict": rep.density_verdict,
                "true_conditions": [cid for cid, v in rep.conditions.items()
                                    if v.is_true],
            })
    return rows


def modulus_grid_preset(rows=6, cols=6):
    """Left-to-right crossing modulus on a lattice graph."""
    space = grid_space(rows, cols)

    def node(r, c):
        return r * cols + c

    curves = CurveFamily(
        [Curve(tuple(node(r, c) for c in range(cols))) for r in range(rows)],
        generator="grid-crossings",
    )
    out = []
    for p in (1.0, 1.5, 2.0, 3.0):
        res = modulus(space, curves, p)
        out.append({"p": p, "modulus": res.optimum,
                    "kkt_residual": res.certificate.get("kkt_residual")})
    return out


def lip_trunc_sweep_preset(instances=20, eps_values=(0.5, 0.1, 0.02), seed=7):
    """Spike and ramp instances on 20-point paths, swept over shrinking accuracy budgets."""
    rng = np.random.default_rng(seed)
    n = 20
    specs = [NormSpec.lp(2), NormSpec.lorentz(2, 1)]
    rows = []
    for inst in range(instances):
        space = path_space(n)
        kind = "spike" if inst % 2 == 0 else "ramp"
        if kind == "spike":
            u = rng.uniform(0, 1, n)
            k = int(rng.integers(0, n))
            u[k] += float(rng.uniform(20, 60))
        else:
            u = np.linspace(0, float(rng.uniform(10, 40)), n)
            u += rng.uniform(0, 0.5, n)
        h = minimal_hajlasz(space, u, 2).minimizer
        spec = specs[inst % len(specs)]
        prev_size = None
        for eps in eps_values:
            try:
                res = lipschitz_truncation(space, u, h, spec,
                                           CurveFamily.empty(), eps)
                ok = res.norm_gap < eps
                size = len(res.exceptional)
                monotone = prev_size is None or size <= prev_size
                prev_size = size
                rows.append({
                    "instance": inst, "kind": kind, "spec": spec.describe(),
                    "eps": eps, "norm_gap": res.norm_gap, "exceptional": size,
                    "gap_ok": bool(ok), "monotone_ok": bool(monotone),
                })
            except BudgetExhausted:
                rows.append({
                    "instance": inst, "kind": kind, "spec": spec.describe(),
                    "eps": eps, "norm_gap": INF, "exceptional": -1,
                    "gap_ok": False, "monotone_ok": False,
                })
    return rows
