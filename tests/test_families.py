"""Golden per-family behaviour: one spec of each of the 11 norm families.

Every member that reads the family table is pinned for each family, so a
wrong entry or a wrong lookup shows up here.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from test_maximal import concave_sampled

from rikit.cli import parse_space, spec_shorthand
from rikit.errors import RikitError, UnsupportedCombination
from rikit.maximal import density_criteria_report
from rikit.rearrange import GridFn, WeightedSamples
from rikit.spaces import (
    FundamentalFn,
    NormSpec,
    OrliczN,
    PsiMajorantPhi,
    _LambdaQFundamental,
    _generic_start,
    _MaxPhi,
    fundamental_function,
    norm,
    psi_majorant_phi,
)

power = FundamentalFn.power
DENSITY_GOLDEN = Path(__file__).resolve().parent / "golden" / "density_reports.json"

U = WeightedSamples([3.0, -1.0, 2.0, 0.5, 0.25], [0.5, 1.0, 0.25, 2.0, 0.75])
TS = (0.25, 1.0, 3.0)

# family: (spec, describe, to_dict, shorthand, absolutely continuous,
#          quasi only, exact Boyd index, fundamental at TS, norm of U)
GOLDEN = {
    "lp": (
        NormSpec.lp(2), "L^2", {"family": "lp", "p": 2.0}, "lp:2",
        True, False, 0.5, [0.5, 1.0, 1.7320508075688772], 2.6545950726994127),
    "lorentz_pq": (
        NormSpec.lorentz(2, 3), "L^(2,3)",
        {"family": "lorentz_pq", "p": 2.0, "q": 3.0}, "lorentz:2,3",
        True, True, 0.5, [0.5, 1.0, 1.7320508075688772], 2.4234518414371924),
    "lorentz_pinf": (
        NormSpec.lorentz_weak(2.5), "L^(2.5,inf)",
        {"family": "lorentz_pinf", "p": 2.5}, "lorentz-weak:2.5",
        False, True, 0.4, [0.5743491774985174, 1.0, 1.5518455739153598],
        2.273574849765597),
    "lambda_phi": (
        NormSpec.lambda_phi(power(0.5)), "Lambda_phi",
        {"family": "lambda_phi",
         "phi": {"form": "power", "alpha": 0.5, "coeff": 1.0, "cap": None}},
        "lambda:power:0.5",
        True, False, 0.5, [0.5, 1.0, 1.7320508075688772], 3.2490230169029712),
    "lambda_q_phi": (
        NormSpec.lambda_q(FundamentalFn.power_log(0.5, 1.0), 2), "Lambda^2_phi",
        {"family": "lambda_q_phi", "q": 2.0,
         "phi": {"form": "power_log", "alpha": 0.5, "beta": 1.0, "coeff": 1.0}},
        "lambda-q:2:powerlog:0.5,1",
        True, False, None, [1.2982977078517508, 1.5607802850686665,
                            1.7409075562118501], 4.471378331843078),
    "marcinkiewicz": (
        NormSpec.marcinkiewicz(power(0.5, 2.0)), "M_phi",
        {"family": "marcinkiewicz",
         "phi": {"form": "power", "alpha": 0.5, "coeff": 2.0, "cap": None}},
        "marc:power:0.5,2",
        False, False, 0.5, [1.0, 2.0, 3.4641016151377544], 4.618802153517006),
    "weak_marcinkiewicz": (
        NormSpec.weak_marcinkiewicz(power(0.5, 1.0, 4.0)), "M*_phi",
        {"family": "weak_marcinkiewicz",
         "phi": {"form": "power", "alpha": 0.5, "coeff": 1.0, "cap": 4.0}},
        "weak-marc:power:0.5,1,4",
        False, True, None, [0.5, 1.0, 1.7320508075688772], 2.121320343559643),
    "marcinkiewicz_p": (
        NormSpec.marcinkiewicz_p(
            FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5]), 2),
        "M^2_phi",
        {"family": "marcinkiewicz_p", "p": 2.0,
         "phi": {"form": "sampled", "t": [0.5, 1.0, 2.0], "v": [0.8, 1.0, 1.5],
                 "cap": 2.0}},
        None,
        False, True, None, [0.565685424949238, 1.0606601717798212, 1.5],
        2.7171331399105196),
    "marcinkiewicz_p_loc": (
        NormSpec.marcinkiewicz_p_loc(power(0.25), 2), "M^2_phi,loc",
        {"family": "marcinkiewicz_p_loc", "p": 2.0,
         "phi": {"form": "power", "alpha": 0.25, "coeff": 1.0, "cap": None}},
        "marc-p-loc:2:power:0.25",
        False, True, None, [0.7071067811865476, 1.0, 1.0],
        2.5226892457611436),
    "orlicz_lux": (
        NormSpec.orlicz_lux(OrliczN([1.0, 2.0], [1.0, 4.0])), "L^Psi",
        {"family": "orlicz_lux", "orlicz": {"x": [1.0, 2.0], "y": [1.0, 4.0]}},
        None,
        None, False, None, [0.5, 1.0, 3.0], 4.1875),
    "intersection_max": (
        NormSpec.intersection_max(NormSpec.lp(2), NormSpec.lorentz(3, 1)),
        "max(L^2, L^(3,1))",
        {"family": "intersection_max",
         "parts": [{"family": "lp", "p": 2.0},
                   {"family": "lorentz_pq", "p": 3.0, "q": 1.0}]},
        "max:lp:2|lorentz:3,1",
        True, False, None, [0.6299605249474366, 1.0, 1.7320508075688772],
        3.105941357800038),
}


@pytest.mark.parametrize("family", list(GOLDEN))
def test_family_golden(family):
    (spec, label, as_dict, short, ac, quasi, boyd, fund,
     value) = GOLDEN[family]
    assert spec.family == family
    assert spec.describe() == label
    assert spec.to_dict() == as_dict
    back = NormSpec.from_dict(as_dict)
    assert back.family == family
    assert back.to_dict() == as_dict
    assert norm(U, back) == norm(U, spec)
    assert spec_shorthand(spec) == short
    if short is not None:
        assert parse_space(short).to_dict() == as_dict
    assert spec.absolutely_continuous is ac
    assert spec.quasi_only is quasi
    assert spec.boyd_alpha_exact() == boyd
    phi = spec.fundamental_phi()
    assert [float(phi(t)) for t in TS] == pytest.approx(fund, rel=1e-12)
    assert norm(U, spec) == pytest.approx(value, rel=1e-12)
    assert type(norm(U, spec)) is float


@pytest.mark.parametrize("family", list(GOLDEN))
def test_fundamental_function_takes_a_finite_positive_measure(family):
    # the norm of an indicator: no closed form answers t = inf
    for t in (math.inf, math.nan, 0.0):
        with pytest.raises(ValueError):
            fundamental_function(GOLDEN[family][0], t)


@pytest.mark.parametrize("text", ["lorentz:3", "lp:2,3", "marc-p:2",
                                  "max:lp:2|banach:1"])
def test_parse_space_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_space(text)


@pytest.mark.parametrize("family", list(GOLDEN))
def test_rearrangement_invariance_on_subnormal_cells(family):
    # widths of 7 and 11 times 2^-1060, far below the normal floats, whose
    # sums are exact: the increasing GridFn and its decreasing twin are
    # equimeasurable, so every norm reads the same bits on both
    a, b = math.ldexp(7.0, -1060), math.ldexp(11.0, -1060)
    rising = GridFn([0.0, a, a + b], [1.0, 2.0])
    falling = GridFn([0.0, b, a + b], [2.0, 1.0])
    spec = GOLDEN[family][0]
    assert norm(rising, spec) == norm(falling, spec)


@pytest.mark.parametrize("family", list(GOLDEN))
def test_quasi_only_same_for_direct_construction(family):
    # the family decides quasi_only, not which constructor built the spec;
    # lipschitz_truncation's default c_delta reads it
    spec = GOLDEN[family][0]
    direct = NormSpec(spec.family, p=spec.p, q=spec.q, phi=spec.phi,
                      orlicz=spec.orlicz, parts=spec.parts)
    assert direct.quasi_only is spec.quasi_only


def test_quasi_only_direct_lorentz_and_weak_marcinkiewicz():
    assert NormSpec("lorentz_pq", p=2.0, q=3.0).quasi_only is True
    assert NormSpec("lorentz_pq", p=3.0, q=2.0).quasi_only is False
    assert NormSpec("weak_marcinkiewicz", phi=power(0.5)).quasi_only is True


@pytest.mark.parametrize("args, field", [
    ({"family": "lambda_phi"}, "phi"),
    ({"family": "lp", "p": math.nan}, "p"),
    ({"family": "lorentz_pq", "p": 2.0, "q": "3"}, "q"),
    ({"family": "orlicz_lux", "orlicz": power(0.5)}, "orlicz"),
    ({"family": "intersection_max", "parts": ()}, "parts"),
    ({"family": "intersection_max", "parts": (NormSpec.lp(2), None)}, "parts"),
])
def test_a_spec_holds_real_fields_and_its_part(args, field):
    # a spec whose numeric field is not a real number, or whose part is
    # missing or of the wrong kind, is refused where it is built, naming the
    # field (tests/test_cli.py reads such specs from a file)
    with pytest.raises(UnsupportedCombination, match=f"needs .*{field}"):
        NormSpec(**args)


# -- density reports -----------------------------------------------------------------

# one spec per family, where its report finishes in seconds; the power-log
# Marcinkiewicz shapes take the other side of the weak-type rule
DENSITY_SPECS = {
    "lp": NormSpec.lp(2),
    "lorentz_pq": NormSpec.lorentz(2, 3),
    "lorentz_pinf": NormSpec.lorentz_weak(2.5),
    "lambda_phi": NormSpec.lambda_phi(power(0.5)),
    "lambda_q_phi": NormSpec.lambda_q(power(0.75), 2),
    "marcinkiewicz": NormSpec.marcinkiewicz(power(0.5, 2.0)),
    "marcinkiewicz/powerlog": NormSpec.marcinkiewicz(FundamentalFn.power_log(0.4, 1.0)),
    "weak_marcinkiewicz": NormSpec.weak_marcinkiewicz(power(0.5, 1.0, 4.0)),
    "weak_marcinkiewicz/powerlog": NormSpec.weak_marcinkiewicz(
        FundamentalFn.power_log(0.4, 1.0)),
    "marcinkiewicz_p": NormSpec.marcinkiewicz_p(
        FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5]), 2),
    "marcinkiewicz_p_loc": NormSpec.marcinkiewicz_p_loc(power(0.75), 2),
    "orlicz_lux": NormSpec.orlicz_lux(OrliczN([1.0, 2.0], [1.0, 4.0])),
    "intersection_max": NormSpec.intersection_max(NormSpec.lp(2), NormSpec.lorentz(3, 1)),
}
DENSITY_P = (1.0, 1.5, 2.0, 3.0)


def density_reports(name):
    """to_dict() of the reports for one spec, keyed 'p/complete', as JSON reads it."""
    spec = DENSITY_SPECS[name]
    return json.loads(json.dumps({
        f"{p:g}/{int(complete)}": density_criteria_report(spec, p, complete).to_dict()
        for p in DENSITY_P for complete in (False, True)}))


@pytest.mark.parametrize("name", list(DENSITY_SPECS))
def test_density_reports_match_golden(name):
    # recorded before the family rules moved into the family table; the
    # lambda_q_phi entry since Lambda^q over c t^alpha takes the power
    # fundamental of L^(1/alpha,q), with the statuses of lorentz(1/alpha, q);
    # the intersection_max and marcinkiewicz_p_loc entries since B and
    # m_phi_Lp take closed forms on power pieces (values only, no status);
    # the lp, Lorentz, Lambda, Lambda^q and both Marcinkiewicz entries since
    # (i)-(iii) read each family's Lorentz index from the table; both M^p
    # entries since psi is built from phi's pieces: over t^0.75, psi is
    # t^0.5 capped at 1, with exact index 1/2, which decides (viii) and (c-iii)
    golden = json.loads(DENSITY_GOLDEN.read_text())
    assert set(DENSITY_SPECS) == set(golden)
    assert density_reports(name) == golden[name]


# a family over t^alpha and its twin, the Lorentz space it equals near 0:
# (spec from phi and q, twin from alpha and q)
LORENTZ_TWINS = {
    "lambda_q_phi": (NormSpec.lambda_q, lambda a, q: NormSpec.lorentz(1.0 / a, q)),
    "lambda_phi": (lambda phi, q: NormSpec.lambda_phi(phi),
                   lambda a, q: NormSpec.lorentz(1.0 / a, 1)),
    "marcinkiewicz": (lambda phi, q: NormSpec.marcinkiewicz(phi),
                      lambda a, q: NormSpec.lorentz_weak(1.0 / a) if a < 1.0
                      else NormSpec.lp(1)),
    "weak_marcinkiewicz": (lambda phi, q: NormSpec.weak_marcinkiewicz(phi),
                           lambda a, q: NormSpec.lorentz_weak(1.0 / a)),
}


@pytest.mark.parametrize("family, q", [pytest.param("lambda_q_phi", q, id=str(q))
                                       for q in (1.5, 2.0, 4.0)]
                         + [pytest.param(name, None, id=name)
                            for name in list(LORENTZ_TWINS)[1:]])
@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.75, 1.0])
def test_lambda_q_over_a_power_reports_as_its_lorentz_space(family, q, alpha):
    # Lambda^q over t^alpha is L^(1/alpha,q), Lambda over it L^(1/alpha,1),
    # M* over it L^(1/alpha,inf), and M over it L^(1/alpha,inf) for
    # alpha < 1 but L^1 over t: the reports of twins agree
    make, make_twin = LORENTZ_TWINS[family]
    for p in (*DENSITY_P, 4.0 / 3.0):
        for complete in (False, True):
            ours = density_criteria_report(make(power(alpha), q), p, complete)
            twin = density_criteria_report(make_twin(alpha, q), p, complete)
            statuses = {cid: v.status for cid, v in ours.conditions.items()}
            assert statuses == {cid: v.status for cid, v in twin.conditions.items()}, (
                p, complete)
            assert ours.density_verdict == twin.density_verdict, (p, complete)


def test_marcinkiewicz_over_t_reports_as_l1():
    # sup_t t u**(t) is the integral of u*: L^1, which lies in L^1
    spec = NormSpec.marcinkiewicz(power(1.0))
    rep = density_criteria_report(spec, 1)
    assert rep.conditions["iii"].status == "true"
    assert rep.conditions["iii"].certificate == {"q0": 1.0}
    assert spec.absolutely_continuous and rep.density_verdict
    u = WeightedSamples([3.0, -1.0, 0.5], [0.2, 0.5, 1.0])
    assert norm(u, spec) == pytest.approx(norm(u, NormSpec.lp(1)), rel=1e-12)


def test_lambda_q_over_a_power_takes_closed_forms():
    rep = density_criteria_report(NormSpec.lambda_q(power(0.75), 2), 1)
    assert rep.conditions["iv"].certificate["B"] == 4.0
    assert rep.conditions["vii"].certificate["m_phi_Lp"] == 4.0
    # a capped power, a maximum of powers and a psi-majorant are no powers
    for phi in (power(0.75, 1.0, 4.0), _MaxPhi([power(0.3), power(0.6, 2.0)]),
                psi_majorant_phi(power(0.75), 2.0)):
        assert type(NormSpec.lambda_q(phi, 2).fundamental_phi()) is _LambdaQFundamental
    # (q alpha)^{-1/q} past the float range, and alpha = 0: no finite fundamental
    for alpha in (5e-324, 0.0):
        spec = NormSpec.lambda_q(power(alpha), 1)
        with pytest.raises(UnsupportedCombination, match="no finite fundamental"):
            spec.fundamental_phi()
        with pytest.raises(RikitError):
            density_criteria_report(spec, 1)


# the M^p_loc fundamental shape against the norm of an indicator: (shape,
# whether the norm's sup is exact); over a power-log or an Orlicz shape its
# grid may miss the peak of phi(s) s^{-1/p}, and then it reads low
LOC_ZOO = {
    "power": (power(0.25), True),
    "power/steep": (power(0.75, 2.0), True),
    "power/capped": (power(0.5, 2.0, 3.0), True),
    "power/capped_low": (power(0.7, 1.0, 1e-6), True),
    "powerlog/up": (FundamentalFn.power_log(0.55, 1.0), False),
    "powerlog/down": (FundamentalFn.power_log(0.3, -1.0), False),
    "sampled": (FundamentalFn.sampled([0.5, 1.0, 2.0], [0.8, 1.0, 1.5]), True),
    "sampled/cap": (FundamentalFn.sampled([1e-3, 0.2, 4.0], [0.01, 0.5, 0.9], cap=2.0), True),
    "orlicz": (FundamentalFn.orlicz_inverse(OrliczN([1.0, 2.0, 4.0], [1.0, 3.0, 10.0])),
               False),
    # shapes that take their components' peaks
    "max": (_MaxPhi([FundamentalFn.power_log(0.55, 1.0), power(0.9)]), False),
    "psi": (PsiMajorantPhi(FundamentalFn.power_log(0.55, 1.0), 1.5), False),
}


@pytest.mark.parametrize("name", list(LOC_ZOO))
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_loc_fundamental_is_the_norm_of_an_indicator(name, p):
    phi, exact = LOC_ZOO[name]
    spec = NormSpec.marcinkiewicz_p_loc(phi, p)
    shape = spec.fundamental_phi()
    for t in np.geomspace(1e-12, 10.0, 45):
        want = fundamental_function(spec, t)
        assert shape(t) >= want * (1 - 1e-12), t
        if exact:
            assert shape(t) == pytest.approx(want, rel=1e-12), t


# every family over a shape phi (unread by the families without one) and p
FAMILY_MAKERS = {
    "lp": lambda phi, p: NormSpec.lp(p),
    "lorentz_pq": lambda phi, p: NormSpec.lorentz(p, 2.0),
    "lorentz_pinf": lambda phi, p: NormSpec.lorentz_weak(p),
    "lambda_phi": lambda phi, p: NormSpec.lambda_phi(phi),
    "lambda_q_phi": lambda phi, p: NormSpec.lambda_q(phi, p),
    "marcinkiewicz": lambda phi, p: NormSpec.marcinkiewicz(phi),
    "weak_marcinkiewicz": lambda phi, p: NormSpec.weak_marcinkiewicz(phi),
    "marcinkiewicz_p": NormSpec.marcinkiewicz_p,
    "marcinkiewicz_p_loc": NormSpec.marcinkiewicz_p_loc,
    "orlicz_lux": lambda phi, p: NormSpec.orlicz_lux(OrliczN([1.0, 2.0], [1.0, 1.0 + p])),
    "intersection_max": lambda phi, p: NormSpec.intersection_max(
        NormSpec.lp(2.0), NormSpec.marcinkiewicz_p(phi, 2.0)),
}
_INDICATOR_SHAPES = st.one_of(
    st.builds(power, st.floats(0.0, 1.0), st.floats(0.2, 5.0), st.floats(0.5, 16.0)),
    concave_sampled(),
    st.builds(FundamentalFn.power_log, st.floats(0.05, 0.95), st.floats(-2.0, 2.0),
              st.just(1.0), st.floats(0.5, 16.0) | st.just(math.inf)))


@settings(max_examples=200, deadline=None)
@given(family=st.sampled_from(list(FAMILY_MAKERS)), phi=_INDICATOR_SHAPES,
       p=st.floats(1.0, 4.0))
# phi(s) s^{-1/2} rises up to the cap 8: M^2 cut at 1 read 0.25 at t = 0.25, not 0.7071
@example(family="marcinkiewicz_p", phi=power(1.0, 0.5, 8.0), p=2.0)
def test_fundamental_shape_is_the_norm_of_an_indicator(family, phi, p):
    # wherever the norm of an indicator is finite the fundamental shape is
    # it; over a generic piece (a power-log head) the sup norms take a grid
    # maximum that reads low, and there the shape lies at or above the norm
    spec = FAMILY_MAKERS[family](phi, p)
    try:
        shape = spec.fundamental_phi()
    except UnsupportedCombination:  # Lambda^q over t^0: no finite fundamental
        assume(False)
    ts = np.unique(np.concatenate((np.geomspace(1e-3, 20.0, 25), phi.kinks(1e-3, 20.0))))
    generic = _generic_start(phi, 0.0, math.inf) < math.inf
    for t, got in zip(ts, shape(ts)):
        want = fundamental_function(spec, t)
        if not math.isfinite(want):
            continue
        if generic:
            assert got >= want * (1 - 1e-12), t
            assert got == pytest.approx(want, rel=1e-4), t
        else:
            assert got == pytest.approx(want, rel=1e-9), t


# condition statuses of the M^2 report at p = 2 for a power-log shape
# t^a |log t| near 0; at a = 0.7 > 1/2 the weak-type bound (iv) fails
MP_POWERLOG_STATUS = {
    0.3: {"i": "true", "iv": "true", "vii": "true"},
    0.5: {"i": "true", "iv": "true", "vii": "true"},
    0.7: {"i": "inconclusive", "iv": "false", "vii": "false"},
}


@pytest.mark.parametrize("a", list(MP_POWERLOG_STATUS))
def test_marcinkiewicz_p_power_log_reports_are_coherent(a):
    # the implication closure raises InvariantViolated on an incoherent report
    spec = NormSpec.marcinkiewicz_p(FundamentalFn.power_log(a, 1.0), 2)
    report = density_criteria_report(spec, 2).to_dict()
    status = {cid: c["status"] for cid, c in report["conditions"].items()}
    assert {cid: status[cid] for cid in ("i", "iv", "vii")} == MP_POWERLOG_STATUS[a]
    assert report["ac_norm"] is False and report["density_verdict"] is False
