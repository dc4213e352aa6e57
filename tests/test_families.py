"""Golden per-family behaviour: one spec of each of the 11 norm families.

Every member that reads the family table is pinned for each family, so a
wrong entry or a wrong lookup shows up here.
"""

import pytest

from rikit.cli import parse_space, spec_shorthand
from rikit.rearrange import WeightedSamples
from rikit.spaces import FundamentalFn, NormSpec, OrliczN, norm

power = FundamentalFn.power

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
        False, True, None, [0.565685424949238, 1.0, 1.5], 2.7171331399105196),
    "marcinkiewicz_p_loc": (
        NormSpec.marcinkiewicz_p_loc(power(0.25), 2), "M^2_phi,loc",
        {"family": "marcinkiewicz_p_loc", "p": 2.0,
         "phi": {"form": "power", "alpha": 0.25, "coeff": 1.0, "cap": None}},
        "marc-p-loc:2:power:0.25",
        False, True, None, [0.7071067811865476, 1.0, 1.3160740129524924],
        2.5226892457611436),
    "orlicz_lux": (
        NormSpec.orlicz_lux(OrliczN([1.0, 2.0], [1.0, 4.0])), "L^Psi",
        {"family": "orlicz_lux", "orlicz": {"x": [1.0, 2.0], "y": [1.0, 4.0]}},
        None,
        None, False, None, [0.5, 1.0, 3.0], 4.187500000000023),
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


@pytest.mark.parametrize("text", ["lorentz:3", "lp:2,3", "marc-p:2",
                                  "max:lp:2|banach:1"])
def test_parse_space_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_space(text)


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
