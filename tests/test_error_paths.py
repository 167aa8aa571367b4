"""Error paths of the public entry points: each refusal, its type and message."""

import json
import math
import sys
import time
from fractions import Fraction as F

import pytest

from loopgas import (
    Backend,
    CharacterSpec,
    DomainError,
    GenSeries,
    RegulatorFitError,
    TailBoundError,
    annulus,
    boundary,
    characters,
    observables,
    params_from_n,
    qseries,
    wrap_coefficient,
    wrap_weight,
)
from loopgas.cli import main

ISING = params_from_n(1.0, "dilute")
SPEC = CharacterSpec(3, 4, 1, 1)


ERROR_PATHS = [
    ("flux_sum parity", lambda: annulus.flux_sum(ISING, parity="both"),
     DomainError, "parity must be 'even', 'odd' or None"),
    ("flux_sum form", lambda: annulus.flux_sum(ISING, form="pairs"),
     DomainError, "unknown flux-sum form"),
    ("parity sector None", lambda: annulus.partition_direct_parity(ISING, parity=None),
     DomainError, "parity must be 'even' or 'odd'"),
    ("naive below p=0", lambda: annulus.partition_naive(ISING, cutoff=-1),
     DomainError, "excludes the p=0 term"),
    ("character below every term",
     lambda: characters.rocha_caridi(CharacterSpec(3, 4, 1, 1), cutoff=-5),
     DomainError, "excludes every character term"),
    ("decompose empty basis",
     lambda: characters.decompose(annulus.partition_direct(ISING, cutoff=8), []),
     DomainError, "empty character basis"),
    ("dilate by zero", lambda: qseries.euler_inverse(8).dilate(0),
     DomainError, "dilate factor must be positive"),
    ("truncate upward", lambda: qseries.euler_inverse(8).truncate(9),
     DomainError, "truncating upward"),
    ("pentagonal at zero", lambda: qseries.pentagonal_series(0),
     DomainError, "requires cutoff > 0"),
    ("euler product at zero", lambda: qseries.euler_product(0),
     DomainError, "requires cutoff > 0"),
    ("exact coercion of a str", lambda: qseries._as_exact("1/2"),
     DomainError, "unsupported coefficient type str"),
    ("regulator fit tolerance",
     lambda: boundary.e1_cutoff(boundary.BoundaryCoupling(1.0, 0.1, 0.2),
                                [0.01, 0.02, 0.03, 0.05], fit_tol=1e-30),
     RegulatorFitError, "fit residual"),
    ("power-law fit of a negative value",
     lambda: observables.asymptote_fit(lambda x: (-1.0, 0.0), (0.1, 0.5)),
     DomainError, "needs positive values"),
    ("float NaN exponent",
     lambda: GenSeries.from_terms([(math.nan, 1.0), (1, 1.0)], 4, Backend.FLOAT),
     DomainError, "exponent must be finite, got nan"),
    ("float -inf exponent",
     lambda: GenSeries.from_terms([(1, 1.0), (-math.inf, 1.0)], 4, Backend.FLOAT),
     DomainError, "exponent must be finite, got -inf"),
    ("constructor NaN exponent",
     lambda: GenSeries([(math.nan, 1.0)], 4, Backend.FLOAT),
     DomainError, "exponent must be finite, got nan"),
    ("constructor NaN cutoff", lambda: GenSeries([(0, 1.0)], math.nan, Backend.FLOAT),
     DomainError, "cutoff must be finite, got nan"),
    ("float inf coefficient",
     lambda: GenSeries.from_terms([(1, math.inf)], 4, Backend.FLOAT),
     DomainError, "coefficient must be finite, got inf"),
    ("float NaN coefficient",
     lambda: GenSeries.from_terms([(0.5, 2.0), (1, math.nan)], 4, Backend.FLOAT),
     DomainError, "coefficient must be finite, got nan"),
    ("float NaN scalar", lambda: qseries.euler_inverse(8, Backend.FLOAT) * math.nan,
     DomainError, "scalar must be finite, got nan"),
    ("float exponent past the largest double",
     lambda: GenSeries.from_terms([(10**400, 1)], 4, Backend.FLOAT),
     DomainError, "^exponent is too large for a float$"),
    ("float coefficient past the largest double",
     lambda: GenSeries.from_terms([(1, 10**400)], 4, Backend.FLOAT),
     DomainError, "^coefficient is too large for a float$"),
    ("float cutoff past the largest double", lambda: GenSeries.zero(10**400, Backend.FLOAT),
     DomainError, "cutoff is too large for a float"),
    ("float scalar past the largest double",
     lambda: qseries.euler_inverse(8, Backend.FLOAT) * 10**400,
     DomainError, "scalar is too large for a float"),
    ("float merged sum overflows",
     lambda: GenSeries.from_terms([(0, 1e308), (0, 1e308)], 4, Backend.FLOAT),
     DomainError, "a merged floating coefficient is not finite"),
    ("float Euler row overflows",
     lambda: qseries._euler_kernel(GenSeries.from_terms([(0, 1e308)], 8, Backend.FLOAT)),
     DomainError, "a merged floating coefficient is not finite"),
    ("float dilate past the largest double",
     lambda: qseries.euler_inverse(8, Backend.FLOAT).dilate(1e308),
     DomainError, "dilate leaves exponents and cutoff that are not finite"),
    ("float shift collapses the exponents",
     lambda: qseries.euler_inverse(8, Backend.FLOAT).shift(1.7e308),
     DomainError, "shift leaves exponents and cutoff that are not finite"),
    ("float dilate moves exponents within the merge tolerance",
     lambda: qseries.euler_inverse(8, Backend.FLOAT).dilate(1e-12),
     DomainError, "dilate leaves .* exponents closer than FLOAT_EXPONENT_TOL"),
    ("float scalar product overflows",
     lambda: qseries.euler_inverse(8, Backend.FLOAT) * 1e308 * 10.0,
     DomainError, "scalar times the largest coefficient must be finite, got inf"),
    ("exact eval_at overflows a term",
     lambda: GenSeries.from_terms([(-1000, 1)], 10).eval_at(0.1),
     DomainError, "value at q=0.1 is not finite in double precision"),
    ("float eval_at overflows the sum",
     lambda: GenSeries.from_terms([(0.0, 1e308), (1.0, 1e308)], 10.0, Backend.FLOAT).eval_at(0.99),
     DomainError, "value at q=0.99 is not finite in double precision"),
    ("float lookup at a NaN exponent",
     lambda: qseries.euler_inverse(8, Backend.FLOAT).coefficient(math.nan),
     DomainError, "exponent must be finite, got nan"),
    ("float lookup at an inf exponent",
     lambda: qseries.euler_inverse(8, Backend.FLOAT).coefficient(math.inf),
     DomainError, "exponent must be finite, got inf"),
    ("float lookup at a -inf exponent",
     lambda: qseries.euler_inverse(8, Backend.FLOAT).coefficient(-math.inf),
     DomainError, "exponent must be finite, got -inf"),
    ("float lookup past the largest double",
     lambda: qseries.euler_inverse(8, Backend.FLOAT).coefficient(10**400),
     DomainError, "exponent is too large for a float"),
    ("eval_at of None", lambda: qseries.euler_inverse(8).eval_at(None),
     DomainError, "eval_at requires 0 < q < 1, got None"),
    ("eval_at of a str that is no number", lambda: qseries.euler_inverse(8).eval_at("x"),
     DomainError, "eval_at requires 0 < q < 1, got 'x'"),
    ("eval_at of a list", lambda: qseries.euler_inverse(8, Backend.FLOAT).eval_at([0.5]),
     DomainError, "eval_at requires 0 < q < 1, got \\[0.5\\]"),
    # the discriminant overflows; no support of ~1e154 sectors is built
    ("float support past the doubles",
     lambda: qseries._integer_support(1e300, 0.0, 0.0, 1e308, lambda k: 1e300 * k * k),
     DomainError, "cutoff 1e\\+308 puts the support's ends past the doubles"),
    ("crossed support past the doubles",
     lambda: annulus.partition_crossed(params_from_n(1.3, "dense"), None, 1e308),
     DomainError, "cutoff 1e\\+308 puts the support's ends past the doubles"),
    # the support's estimated length is refused before any of it is enumerated
    ("naive support past the cap",
     lambda: annulus.partition_naive(params_from_n(1.3, "dense"), None, 1e308),
     DomainError, "the cutoff asks for a support of more than 65536 integers"),
    # 2 * 1e308 is no double, but the slot rule reads the cutoff as an integer
    ("floating pentagonal support past the cap",
     lambda: qseries.pentagonal_series(1e308, Backend.FLOAT),
     DomainError, "the cutoff asks for a support of more than 65536 integers"),
    ("float flux support past the cap",
     lambda: annulus.flux_sum(params_from_n(1.3, "dense"), None, 1e12, None, Backend.FLOAT),
     DomainError, "the cutoff asks for a support of more than 65536 integers"),
    ("exact flux support past the cap", lambda: annulus.flux_sum(ISING, None, 10**12),
     DomainError, "the cutoff asks for a support of more than 65536 integers"),
    ("crossed support past the cap",
     lambda: annulus.partition_crossed(params_from_n(1.3, "dense"), None, 1e12),
     DomainError, "the cutoff asks for a support of more than 65536 integers"),
    ("eta tau_imag NaN", lambda: qseries.eta_modular_check(math.nan),
     DomainError, "tau_imag must be positive, got nan"),
    ("eta tau_imag inf", lambda: qseries.eta_modular_check(math.inf),
     DomainError, "tau_imag must be finite, got inf"),
    ("eta tau_imag -inf", lambda: qseries.eta_modular_check(-math.inf),
     DomainError, "tau_imag must be positive, got -inf"),
    ("eta tau_imag zero", lambda: qseries.eta_modular_check(0.0),
     DomainError, "tau_imag must be positive, got 0.0"),
    ("eta tau_imag q rounds to 1", lambda: qseries.eta_modular_check(1e-300),
     DomainError, "tau_imag=1e-300 rounds q or qtilde"),
    ("eta tau_imag q rounds to 0", lambda: qseries.eta_modular_check(1e300),
     DomainError, "tau_imag=1e\\+300 rounds q or qtilde"),
    # the evaluation entry points take numbers as the series do
    ("duality ratio str", lambda: annulus.duality_check(ISING, None, "1"),
     DomainError, "unsupported ratio type str"),
    ("duality ratio None", lambda: annulus.duality_check(ISING, None, None),
     DomainError, "unsupported ratio type NoneType"),
    ("duality tol str", lambda: annulus.duality_check(ISING, tol="x"),
     DomainError, "unsupported tol type str"),
    ("eta tau_imag str", lambda: qseries.eta_modular_check("1"),
     DomainError, "unsupported tau_imag type str"),
    ("eta tol str", lambda: qseries.eta_modular_check(1.0, tol="x"),
     DomainError, "unsupported tol type str"),
    ("e0_zeta width str", lambda: boundary.e0_zeta("1"),
     DomainError, "unsupported strip width L type str"),
    ("e1_cutoff epsilon str",
     lambda: boundary.e1_cutoff(boundary.BoundaryCoupling(1.0, 0.1, 0.2), ["a", "b", "c"]),
     DomainError, "unsupported epsilon type str"),
    ("loop weight str", lambda: params_from_n("x", "dense"),
     DomainError, "unsupported loop weight type str"),
    ("loop weight None", lambda: params_from_n(None, "dense"),
     DomainError, "unsupported loop weight type NoneType"),
    ("loop weight list", lambda: params_from_n([1], "dense"),
     DomainError, "unsupported loop weight type list"),
    ("loop weight past the largest double", lambda: params_from_n(10**400, "dilute"),
     DomainError, "loop weight is too large for a float"),
    ("wrap weight numeric str", lambda: wrap_weight("dense", "1.5"),
     DomainError, "unsupported wrap weight type str"),
    ("wrap weight None", lambda: wrap_weight("dense", None),
     DomainError, "unsupported wrap weight type NoneType"),
    ("wrap weight past the largest double", lambda: wrap_weight("dilute", -10**400),
     DomainError, "wrap weight is too large for a float"),
    ("e1_cutoff fit_tol str",
     lambda: boundary.e1_cutoff(boundary.BoundaryCoupling(1.0, 0.1, 0.2),
                                [0.01, 0.02, 0.03], fit_tol="x"),
     DomainError, "unsupported fit_tol type str"),
    ("fit window numeric str",
     lambda: observables.asymptote_fit(lambda x: (1.0, 0.0), ("0.1", "0.5")),
     DomainError, "unsupported fit window type str"),
    ("fit window None", lambda: observables.asymptote_fit(lambda x: (1.0, 0.0), (None, 0.5)),
     DomainError, "unsupported fit window type NoneType"),
    ("fit window past the largest double",
     lambda: observables.asymptote_fit(lambda x: (1.0, 0.0), (10**400, 0.5)),
     DomainError, "fit window is too large for a float"),
    ("wrap_coefficient float p", lambda: wrap_coefficient(2.5, 1.0),
     DomainError, "wrap_coefficient requires an int p >= 0, got 2.5"),
    ("wrap_coefficient str weight", lambda: wrap_coefficient(2, "x"),
     DomainError, "unsupported wrap weight type str"),
    # True and False are no numbers, though Python reads them as 1 and 0
    ("loop weight True", lambda: params_from_n(True, "dense"),
     DomainError, "unsupported loop weight type bool"),
    ("duality ratio True", lambda: annulus.duality_check(ISING, None, ratio=True),
     DomainError, "unsupported ratio type bool"),
    ("from_terms of a True exponent", lambda: GenSeries.from_terms([(True, 1)], 2),
     DomainError, "unsupported exponent type bool"),
    ("eta tau_imag True", lambda: qseries.eta_modular_check(True),
     DomainError, "unsupported tau_imag type bool"),
    ("wrap_coefficient True p", lambda: wrap_coefficient(True, 1.0),
     DomainError, "wrap_coefficient requires an int p >= 0, got True"),
    ("boundary g past the largest double", lambda: boundary.BoundaryCoupling(10**400, 0.1, 0.2),
     DomainError, "g is too large for a float"),
    ("boundary alpha1 past the largest double",
     lambda: boundary.BoundaryCoupling(1.0, 10**400, 0.2),
     DomainError, "alpha1 is too large for a float"),
    ("boundary L past the largest double",
     lambda: boundary.BoundaryCoupling(1.0, 0.1, 0.2, 10**400),
     DomainError, "^L is too large for a float"),
    ("e0_zeta width past the largest double", lambda: boundary.e0_zeta(10**400),
     DomainError, "strip width L is too large for a float"),
    *((f"e0_zeta width {L!r}", lambda L=L: boundary.e0_zeta(L),
       DomainError, "strip width L must be positive and finite")
      for L in (math.nan, math.inf, 0, -1)),
    # boundary values past the doubles: an inf or a nan is refused, never returned
    ("e0_zeta at a subnormal width", lambda: boundary.e0_zeta(1e-320),
     DomainError, "e0_zeta's value is not finite"),
    ("e1_zeta past the doubles", lambda: boundary.e1_zeta(boundary.BoundaryCoupling(1, 1e200, 1e200)),
     DomainError, "e1_zeta's value is not finite"),
    ("e1_zeta at a subnormal g", lambda: boundary.e1_zeta(boundary.BoundaryCoupling(1e-320, 0.3, 0.1)),
     DomainError, "e1_zeta's value is not finite"),
    ("c_effective past the doubles",
     lambda: boundary.c_effective(boundary.BoundaryCoupling(1, 1e200, 1e200)),
     DomainError, "c_effective's value is not finite"),
    ("c_effective at a subnormal g",
     lambda: boundary.c_effective(boundary.BoundaryCoupling(1e-320, 0.3, 0.1)),
     DomainError, "c_effective's value is not finite"),
    ("e1_cutoff past the doubles",
     lambda: boundary.e1_cutoff(boundary.BoundaryCoupling(1, 1e200, 1e200), [0.01, 0.02, 0.03]),
     DomainError, "e1_cutoff's value is not finite"),
    ("e1_cutoff at a subnormal g",
     lambda: boundary.e1_cutoff(boundary.BoundaryCoupling(1e-320, 0.3, 0.1), [0.01, 0.02, 0.03]),
     DomainError, "e1_cutoff's value is not finite"),
    ("e1_zeta at a g L that underflows",
     lambda: boundary.e1_zeta(boundary.BoundaryCoupling(1e-200, 0.3, 0.1, 1e-200)),
     DomainError, "e1_zeta's value is not finite"),
    ("e1_cutoff at a g L that underflows",
     lambda: boundary.e1_cutoff(boundary.BoundaryCoupling(1e-200, 0.3, 0.1, 1e-200),
                                [0.01, 0.02, 0.03]),
     DomainError, "e1_cutoff's value is not finite"),
    ("e1_cutoff at a subnormal width",
     lambda: boundary.e1_cutoff(boundary.BoundaryCoupling(1.5, 0.3, 0.1, 1e-320),
                                [0.01, 0.02, 0.03]),
     DomainError, "e1_cutoff's value is not finite"),
    ("fit window of one value",
     lambda: observables.asymptote_fit(lambda x: (1.0, 0.0), (0.1,)),
     DomainError, r"fit window must be a pair \(lo, hi\), got \(0.1,\)"),
    ("series JSON with an unknown backend",
     lambda: GenSeries.from_json_dict({"backend": "nope", "cutoff": 1, "terms": []}),
     DomainError, "backend must be a Backend, got 'nope'"),
    # NaN compares false both ways, so each of these once fitted without complaint
    ("power-law fit of a NaN value",
     lambda: observables.asymptote_fit(lambda x: (math.nan, 0.0), (0.1, 0.5)),
     DomainError, "needs positive values, got nan"),
    ("power-law fit of an infinite value",
     lambda: observables.asymptote_fit(lambda x: (math.inf, 0.0), (0.1, 0.5)),
     DomainError, "needs positive values, got inf"),
    ("power-law fit with a NaN tail bound",
     lambda: observables.asymptote_fit(lambda x: (1.0, math.nan), (0.1, 0.5)),
     TailBoundError, "tail bound nan exceeds 1% of value"),
]

# Documents that are not the shape `to_json_dict` writes, one per way to miss it.
_FLOAT_DOC = {"backend": "floating", "cutoff": 4.0,
              "terms": [{"exponent": 1.0, "coefficient": 1.0}]}
MALFORMED_SERIES_DOCS = [
    ("no terms", {"backend": "floating", "cutoff": 4.0}, "KeyError: 'terms'"),
    ("a list as the document", [_FLOAT_DOC], "TypeError"),
    ("a term that is not an object", {**_FLOAT_DOC, "terms": [[1.0, 1.0]]}, "TypeError"),
    ("a None cutoff", {**_FLOAT_DOC, "cutoff": None}, "TypeError"),
    ("an exponent text 'x'",
     {**_FLOAT_DOC, "backend": "exact-rational", "terms": [{"exponent": "x", "coefficient": "1"}]},
     "ValueError"),
    ("a cutoff '1/0'", {**_FLOAT_DOC, "backend": "exact-rational", "cutoff": "1/0", "terms": []},
     "ZeroDivisionError"),
    # JSON true and false are no numbers, though Python reads them as 1 and 0
    ("booleans for numbers",
     {"backend": "floating", "cutoff": True,
      "terms": [{"exponent": True, "coefficient": False}, {"exponent": 0.0, "coefficient": 2.0}]},
     "TypeError: True is not a number"),
    ("a boolean cutoff", {**_FLOAT_DOC, "cutoff": True}, "TypeError: True is not a number"),
    ("a boolean coefficient", {**_FLOAT_DOC, "terms": [{"exponent": 1.0, "coefficient": False}]},
     "TypeError: False is not a number"),
]
ERROR_PATHS += [(f"series JSON with {name}", lambda d=doc: GenSeries.from_json_dict(d),
                 DomainError, f"malformed series document: {fragment}")
                for name, doc, fragment in MALFORMED_SERIES_DOCS]

# Both backends take only int, float and Fraction, and refuse anything else,
# a str that float() would read included, with a DomainError naming its type.
NOT_NUMBERS = [
    ("lookup at a str", lambda b: qseries.euler_inverse(8, b).coefficient("x"),
     "unsupported exponent type str"),
    ("from_terms of a str exponent", lambda b: GenSeries.from_terms([("x", 1.0)], 4, b),
     "unsupported exponent type str"),
    ("scalar str", lambda b: qseries.euler_inverse(8, b) * "x",
     "unsupported scalar type str"),
    ("shift by None", lambda b: qseries.euler_inverse(8, b).shift(None),
     "unsupported shift type NoneType"),
    ("dilate by a str", lambda b: qseries.euler_inverse(8, b).dilate("x"),
     "unsupported dilate factor type str"),
    ("truncate at a str", lambda b: qseries.euler_inverse(8, b).truncate("x"),
     "unsupported cutoff type str"),
    ("euler_inverse at a str", lambda b: qseries.euler_inverse("x", b),
     "unsupported cutoff type str"),
    ("euler_inverse at None", lambda b: qseries.euler_inverse(None, b),
     "unsupported cutoff type NoneType"),
    ("euler_inverse at a numeric str", lambda b: qseries.euler_inverse("8", b),
     "unsupported cutoff type str"),
]
ERROR_PATHS += [(f"{backend.name.lower()} {name}", lambda call=call, b=backend: call(b),
                 DomainError, fragment)
                for name, call, fragment in NOT_NUMBERS for backend in Backend]


@pytest.mark.parametrize("call,exc,fragment", [p[1:] for p in ERROR_PATHS],
                         ids=[p[0] for p in ERROR_PATHS])
def test_error_path(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call()


@pytest.mark.parametrize("name", ["naive support past the cap", "float flux support past the cap",
                                  "crossed support past the cap"])
def test_an_oversized_support_is_refused_at_once(name):
    """At 1e308 naive would step through ~4.7e154 sectors one at a time; at
    1e12 the float flux sum would build 4.7 million, and the crossed channel
    run out of memory: each is refused from the support's estimated length."""
    call = {p[0]: p[1] for p in ERROR_PATHS}[name]
    start = time.perf_counter()
    with pytest.raises(DomainError, match="more than 65536 integers"):
        call()
    assert time.perf_counter() - start < 0.5


def test_eval_at_takes_q_as_float_does():
    """A q that float() reads, such as the str "0.5", is that float."""
    series = qseries.euler_inverse(8)
    assert series.eval_at("0.5") == series.eval_at(0.5)


def test_empty_decomposition_serialises_without_a_model():
    assert characters.decomposition_to_json({}) == {"model": None, "terms": []}


@pytest.mark.parametrize("argv,fragment", [
    (["characters", "--n", "0.7", "--phase", "dilute"], "rational coupling"),
    (["characters", "--n", "2", "--phase", "dense"], "no Kac labels"),
    (["sweep", "--target", "duality", "--values", "1.0"], "requires --n"),
    (["crossed", "--n", "1.3", "--phase", "dense", "--order", "1" + "0" * 308],
     "past the doubles"),
    (["partition", "--n", "1", "--phase", "dilute", "--naive", "--parity", "even"],
     "takes no --parity"),
    (["partition", "--n", "1", "--phase", "dilute", "--naive", "--backend", "exact"],
     "takes no --backend exact"),
    (["crossed", "--n", "1.3", "--phase", "dense", "--order", "1" + "0" * 12],
     "more than 65536 integers"),
    (["partition", "--n", "1.3", "--phase", "dense", "--naive", "--order", "1" + "0" * 308],
     "more than 65536 integers"),
    (["boundary", "--g", "1", "--alpha1", "1e200", "--alpha2", "1e200"], "not finite"),
    (["boundary", "--g", "1e-320", "--alpha1", "0.3", "--alpha2", "0.1"], "not finite"),
    (["boundary", "--g", "1.5", "--alpha1", "0.3", "--alpha2", "0.1", "--L", "1e-320"],
     "not finite"),
    (["boundary", "--g", "1e-200", "--alpha1", "0.3", "--alpha2", "0.1", "--L", "1e-200"],
     "not finite"),
    (["sweep", "--target", "crossing", "--n", "0.5", "--phase", "dense", "--values", "0.3"],
     "sweep --target crossing takes no --n"),
    (["sweep", "--target", "crossing", "--phase", "dense", "--values", "0.3"],
     "takes no --phase"),
    (["sweep", "--target", "crossing", "--tol", "1e-8", "--values", "0.3"], "takes no --tol"),
    (["sweep", "--target", "crossing", "--n-prime", "1", "--values", "0.3"],
     "takes no --n-prime"),
    (["sweep", "--target", "crossing", "--crossed", "--values", "0.3"], "takes no --crossed"),
    (["sweep", "--target", "saw", "--phase", "dilute", "--n", "0", "--values", "0.3"],
     "sweep --target saw takes no --n"),
    (["sweep", "--target", "saw", "--phase", "dilute", "--n-prime", "0", "--values", "0.3"],
     "takes no --n-prime"),
    (["sweep", "--target", "saw", "--phase", "dilute", "--tol", "1", "--values", "0.3"],
     "takes no --tol"),
    (["sweep", "--target", "duality", "--n", "1", "--phase", "dense", "--crossed",
      "--values", "1.0"], "sweep --target duality takes no --crossed"),
    # a q derived from --ratio or a conjugate modulus is refused by the value given
    (["crossing", "--ratio", "-1"], "--ratio -1.0 gives q = 23.14"),
    (["crossing", "--ratio", "0"], "--ratio 0.0 gives q = 1.0"),
    (["crossing", "--ratio", "1e-300"], "--ratio 1e-300 gives q = 1.0"),
    (["crossing", "--ratio", "1e300"], "--ratio 1e+300 gives q = 0.0"),
    (["crossing", "--ratio=-1e300"], "--ratio -1e+300 gives q = inf"),
    (["saw", "--phase", "dense", "--ratio", "1e-300"], "--ratio 1e-300 gives q = 1.0"),
    (["sweep", "--target", "saw", "--phase", "dense", "--crossed",
      "--values", "0.9999999999999999"], "qtilde 0.9999999999999999 gives q = 0.0"),
    # at g = 1 every paired ln(qtilde) term is exactly zero, so the work cap decides
    (["crossed", "--n", "2", "--phase", "dense", "--n-prime", "2", "--order", "3000000"],
     "steps of work"),
])
def test_cli_domain_exit(capsys, argv, fragment):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and fragment in err and err.count("\n") == 1


@pytest.mark.parametrize("order", ["22", "64", "100", "200"])
@pytest.mark.parametrize("n", ["1.00000000001", "1.9999999999999"])
def test_cli_paired_log_term_at_every_order(capsys, n, order):
    """g lies 2.8e-12 (relative) from 2/3 at n = 1 + 1e-11, and 1e-7 from 1 at
    n = 2 - 1e-13 (which lies off the registry: acos(n/2)/pi is 1e-7 from 0),
    so 2/g is no integer and n' = 2 meets a nonzero ln(qtilde) term at k = 2
    whatever the cutoff."""
    argv = ["crossed", "--n", n, "--phase", "dense", "--n-prime", "2"]
    assert main([*argv, "--order", order]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "ln(qtilde) term" in err and err.count("\n") == 1


@pytest.mark.parametrize("n, n_prime", [("-0.6180339887498949", "2"),
                                        ("-1.618033988749895", "-2")])
def test_cli_paired_limit_off_the_registry(capsys, n, n_prime):
    """n = 2cos(3 pi/5) and 2cos(4 pi/5) dense are not registry couplings, but
    g = 2/5 and 1/5 make every k/g of n' = 2 and n' = -2 an integer: no ln term
    (`TestCrossed::test_paired_limit_off_the_registry_is_the_direct_channel`)."""
    argv = ["crossed", "--n", n, "--phase", "dense", "--n-prime", n_prime]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


@pytest.mark.parametrize("n", ["1.9999999999999", "1.99999999999995"])
def test_cli_duality_next_to_n_two(capsys, n):
    """n = 2 - 1e-13 and 2 - 5e-14 dense have g about 1e-7 from 1: the registry,
    matched on acos(n/2)/pi, leaves both channels at the one float coupling."""
    argv = ["duality", "--n", n, "--phase", "dense", "--ratio", "1", "--order", "64"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == "" and json.loads(out)["residual"] < 1e-12


# -- inputs the entry points refuse -------------------------------------------

BUILDERS = {
    "partition_direct": lambda b: annulus.partition_direct(ISING, None, 16, b),
    "partition_direct_parity":
        lambda b: annulus.partition_direct_parity(ISING, None, 16, "even", b),
    "flux_sum": lambda b: annulus.flux_sum(ISING, None, 16, None, b),
    "crossing_probability": lambda b: observables.crossing_probability(16, b),
    "wrap_count_generating":
        lambda b: observables.wrap_count_generating(ISING, 1.0, 16, b),
    "saw_loop_dilute": lambda b: observables.saw_loop_dilute(16, b),
    "saw_loop_dense": lambda b: observables.saw_loop_dense(16, b),
    "saw_loop_derivative_series":
        lambda b: observables.saw_loop_derivative_series("dense", 16, b),
    "log_partition_exact_core":
        lambda b: observables.log_partition_exact_core("dense", 16, b),
    "rocha_caridi": lambda b: characters.rocha_caridi(SPEC, 16, b),
    "GenSeries": lambda b: GenSeries([(0, 1)], 4, b),
    "GenSeries.zero": lambda b: GenSeries.zero(4, b),
    "GenSeries.constant": lambda b: GenSeries.constant(1, 4, b),
    "GenSeries.from_terms": lambda b: GenSeries.from_terms([(0, 1)], 4, b),
    "euler_inverse": lambda b: qseries.euler_inverse(8, b),
    "pentagonal_series": lambda b: qseries.pentagonal_series(8, b),
    "euler_product": lambda b: qseries.euler_product(8, b),
    "dedekind_eta_series": lambda b: qseries.dedekind_eta_series(8, b),
}


@pytest.mark.parametrize("build", BUILDERS.values(), ids=BUILDERS.keys())
@pytest.mark.parametrize("backend", ["floating", "exact-rational", None])
def test_backend_must_be_a_backend(build, backend):
    """A backend's name is not a backend: no builder quietly picks one."""
    build(Backend.FLOAT)
    with pytest.raises(DomainError, match="backend must be a Backend"):
        build(backend)


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("op", ["shift", "dilate"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_shift_and_dilate_refuse_non_finite(backend, op, value):
    series = qseries.euler_inverse(8, backend)
    with pytest.raises(DomainError):
        getattr(series, op)(value)


def test_float_scalar_overflow_is_checked_at_the_largest_coefficient():
    """p(7) = 15 is the largest coefficient below q^8: a scalar of a sixteenth
    of the largest double keeps every product finite, an eighth does not."""
    series = qseries.euler_inverse(8, Backend.FLOAT)
    big = series * (sys.float_info.max / 16)
    assert all(math.isfinite(c) for _, c in big.terms)
    with pytest.raises(DomainError, match="largest coefficient"):
        series * (sys.float_info.max / 8)


@pytest.mark.parametrize("call", [
    lambda: CharacterSpec(3, 4, 1.5, 1),
    lambda: CharacterSpec(3.0, 4, 1, 1),
    lambda: CharacterSpec(3, 4, 1, F(1)),
    lambda: observables.asymptote_fit(lambda x: (1.0, 0.0), (0.1, 0.5), npoints=8.0),
], ids=["float r", "float p_minor", "Fraction s", "float npoints"])
def test_non_integer_labels_and_counts_are_domain_errors(call):
    with pytest.raises(DomainError):
        call()
