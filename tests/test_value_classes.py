"""The package's value classes: printed form, equality, hashing, immutability,
pickling and serialised bytes, and the checks of the validated constructors."""

import json
import pickle
from fractions import Fraction as F

import pytest

from loopgas import (
    AsymptoteFit,
    BoundaryCoupling,
    ChannelEval,
    CharacterSpec,
    DomainError,
    params_from_n,
    wrap_weight,
)

# (builder, repr printed before the classes were NamedTuples); each builder
# runs twice, so the two instances are equal without being the same object
CASES = [
    (lambda: params_from_n(1.0, "dense"),
     "CGParams(n=1.0, phase=<Phase.DENSE: 'dense'>, chi=1.0471975511965979, "
     "g=0.6666666666666666, c=-2.220446049250313e-16, m0=0.5000000000000001, "
     "g_exact=Fraction(2, 3), n_exact=Fraction(1, 1), n_sq_exact=Fraction(1, 1))"),
    (lambda: params_from_n(0.7, "dilute"),
     "CGParams(n=0.7, phase=<Phase.DILUTE: 'dilute'>, chi=-1.2132252231493863, "
     "g=1.3861815826959851, c=0.3544732522407882, m0=-0.2785937914027832, "
     "g_exact=None, n_exact=None, n_sq_exact=None)"),
    (lambda: wrap_weight("dense", 0.0),
     "WrapWeight(n_prime=0.0, chi_prime=1.5707963267948966, "
     "n_prime_exact=Fraction(0, 1), n_prime_sq_exact=Fraction(0, 1))"),
    (lambda: wrap_weight("dilute", 1.4142135623730951),
     "WrapWeight(n_prime=1.4142135623730951, chi_prime=-0.7853981633974483, "
     "n_prime_exact=None, n_prime_sq_exact=Fraction(2, 1))"),
    (lambda: ChannelEval(1.0, 0.04321391826377226, 0.0018674427317079893, 2.0,
                         1.9999999999999996, 4.440892098500626e-16,
                         (4.001183710580189e-87, 2.0189295223831793e-173)),
     "ChannelEval(ratio=1.0, q=0.04321391826377226, q_tilde=0.0018674427317079893, "
     "direct_value=2.0, crossed_value=1.9999999999999996, "
     "residual=4.440892098500626e-16, "
     "tail_bounds=(4.001183710580189e-87, 2.0189295223831793e-173))"),
    (lambda: BoundaryCoupling(1.5, 0.3, 0.1),
     "BoundaryCoupling(g=1.5, alpha1=0.3, alpha2=0.1, L=1.0)"),
    (lambda: BoundaryCoupling(g=1, alpha1=0, alpha2=-0.25, L=2),
     "BoundaryCoupling(g=1, alpha1=0, alpha2=-0.25, L=2)"),
    (lambda: BoundaryCoupling(F(3, 2), 0.3, 0.1),
     "BoundaryCoupling(g=Fraction(3, 2), alpha1=0.3, alpha2=0.1, L=1.0)"),
    (lambda: CharacterSpec(3, 4, 1, 3),
     "CharacterSpec(p_minor=3, p_major=4, r=1, s=3)"),
    (lambda: CharacterSpec(p_minor=5, p_major=6, r=1, s=5),
     "CharacterSpec(p_minor=5, p_major=6, r=1, s=5)"),
    (lambda: AsymptoteFit(exponent_fit=0.5, prefactor_fit=2.0,
                          sample_window=(0.1, 0.5), residual=1e-3),
     "AsymptoteFit(exponent_fit=0.5, prefactor_fit=2.0, sample_window=(0.1, 0.5), "
     "residual=0.001)"),
]
IDS = [text.split("(")[0] + f"-{i}" for i, (_, text) in enumerate(CASES)]


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_repr_is_unchanged(build, text):
    assert repr(build()) == text


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_equal_instances_compare_and_hash_equal(build, text):
    a, b = build(), build()
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_fields_cannot_be_assigned(build, text):
    value, first_field = build(), text.split("(")[1].split("=")[0]
    with pytest.raises(AttributeError):
        setattr(value, first_field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0
    assert repr(value) == text


@pytest.mark.parametrize("build,text", CASES, ids=IDS)
def test_pickle_round_trip(build, text):
    value = build()
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert type(back) is type(value)
        assert back == value and repr(back) == text


def test_channel_eval_json_bytes_are_unchanged():
    ev = CASES[4][0]()
    assert json.dumps(ev.to_json_dict()).encode() == (
        b'{"ratio": 1.0, "q": 0.04321391826377226, "q_tilde": 0.0018674427317079893, '
        b'"direct_value": 2.0, "crossed_value": 1.9999999999999996, '
        b'"residual": 4.440892098500626e-16, '
        b'"tail_bounds": [4.001183710580189e-87, 2.0189295223831793e-173]}'
    )


# -- validated constructors ------------------------------------------------------


@pytest.mark.parametrize("call", [
    lambda: CharacterSpec(3, 4, True, 1),
    lambda: CharacterSpec(p_minor=3, p_major=4, r=1, s=True),
    lambda: CharacterSpec(True, 4, 1, 1),
    lambda: CharacterSpec(3, 4, "1", 1),
    lambda: CharacterSpec(3, 4, None, 1),
    lambda: CharacterSpec(3, 4, 1, 1)._replace(r=True),
], ids=["bool r", "bool s by keyword", "bool p_minor", "str r", "None r", "replace"])
def test_character_spec_refuses_non_int_labels(call):
    with pytest.raises(DomainError, match="must be int"):
        call()


@pytest.mark.parametrize("call", [
    lambda: BoundaryCoupling(g="1", alpha1=0.0, alpha2=0.0),
    lambda: BoundaryCoupling("1", 0.0, 0.0),
    lambda: BoundaryCoupling(g=1.0, alpha1=0.0, alpha2=None),
    lambda: BoundaryCoupling(1.0, 0.0, None),
    lambda: BoundaryCoupling(True, 0.0, 0.0),
    lambda: BoundaryCoupling(1.0, False, 0.0),
    lambda: BoundaryCoupling(1.0, 0.0, 0.0, L=True),
    lambda: BoundaryCoupling(1.0, 1j, 0.0),
    lambda: BoundaryCoupling(1.0, 0.0, 0.0)._replace(L="2"),
], ids=["str g by keyword", "str g", "None alpha2 by keyword", "None alpha2",
        "bool g", "bool alpha1", "bool L", "complex alpha1", "replace"])
def test_boundary_coupling_refuses_non_real_fields(call):
    with pytest.raises(DomainError, match="must be real numbers"):
        call()


@pytest.mark.parametrize("args,kwargs", [
    ((3, 4, 1, 3), {}),
    ((3, 4), {"r": 1, "s": 3}),
    ((), {"p_minor": 3, "p_major": 4, "r": 1, "s": 3}),
])
def test_character_spec_positional_and_keyword_agree(args, kwargs):
    assert CharacterSpec(*args, **kwargs) == CharacterSpec(3, 4, 1, 3)


@pytest.mark.parametrize("args,kwargs", [
    ((1.5, 0.3, 0.1, 1.0), {}),
    ((1.5, 0.3, 0.1), {}),
    ((1.5,), {"alpha1": 0.3, "alpha2": 0.1}),
    ((), {"g": 1.5, "alpha1": 0.3, "alpha2": 0.1, "L": 1.0}),
])
def test_boundary_coupling_positional_and_keyword_agree(args, kwargs):
    b = BoundaryCoupling(*args, **kwargs)
    assert repr(b) == "BoundaryCoupling(g=1.5, alpha1=0.3, alpha2=0.1, L=1.0)"
