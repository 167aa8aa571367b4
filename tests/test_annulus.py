"""Direct/crossed channels, duality, parity sectors, boundary entropy."""

import math
import os
import random
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import loopgas
from loopgas import (
    Backend,
    CharacterSpec,
    DomainError,
    GenSeries,
    IdentityError,
    TailBoundError,
    annulus,
    asymptote_fit,
    boundary_g_factor,
    characters,
    default_wrap,
    duality_check,
    electric_dimension,
    euler_inverse,
    flux_sum,
    leading_asymptote,
    params_from_n,
    partition_crossed,
    partition_direct,
    partition_direct_parity,
    partition_naive,
    pentagonal_series,
    qseries,
    rocha_caridi,
    wrap_count_generating,
    wrap_weight,
)
from loopgas.params import _EXACT_ANGLES

ISING = params_from_n(1.0, "dilute")
POTTS3 = params_from_n(math.sqrt(3.0), "dense")
PERC = params_from_n(1.0, "dense")
DILUTE0 = params_from_n(0.0, "dilute")
DENSE0 = params_from_n(0.0, "dense")
XY = params_from_n(2.0, "dilute")

EXACT_POINTS = [DILUTE0, ISING, XY, POTTS3, PERC, DENSE0]


def one(cutoff):
    return GenSeries.constant(1, cutoff)


class TestSpecialCases:
    def test_dilute_polymers_unity(self):
        assert partition_direct(DILUTE0, cutoff=40) == one(40)

    def test_dense_ising_two(self):
        assert partition_direct(PERC, cutoff=40) == one(40) * 2

    def test_dense_polymers_zero(self):
        assert partition_direct(DENSE0, cutoff=40).is_zero

    def test_percolation_even_sector_unity(self):
        assert partition_direct_parity(PERC, cutoff=40, parity="even") == one(40)

    def test_dilute_polymers_eval(self):
        v, tail = partition_direct(DILUTE0, cutoff=40).eval_at(0.3)
        assert abs(v - 1.0) <= 1e-15 + tail

    def test_xy_point_theta_series(self):
        # weights p+1 reduce to a one-sided theta: 1 + 2 sum_{p>=1} q^{p^2/4}
        z = partition_direct(XY, cutoff=10)
        hi = 10 + F(1, 24)
        theta = GenSeries.from_terms(
            [(0, 1)] + [(F(p * p, 4), 2) for p in range(1, 7)], hi
        )
        expected = (theta * euler_inverse(hi)).shift(-F(1, 24))
        assert z.truncate(expected.cutoff) == expected


class TestIdentityNormalization:
    # At n = 1 dense the one-leg exponent vanishes, so the p = 0 and p = 1
    # sectors share the leading exponent and the merged coefficient is 2.
    @pytest.mark.parametrize(
        "params,parity,lead_coeff",
        [
            (DILUTE0, None, 1),
            (ISING, None, 1),
            (XY, None, 1),
            (POTTS3, "even", 1),
            (PERC, None, 2),
        ],
    )
    def test_p0_coefficient(self, params, parity, lead_coeff):
        theta = flux_sum(params, cutoff=30, parity=parity)
        assert theta.coefficient(-params.c_exact / 24) == lead_coeff

    def test_default_wrap_matches_explicit(self):
        w = wrap_weight("dilute", 1.0)
        assert partition_direct(ISING, w, 30) == partition_direct(ISING, None, 30)


class TestNullSubtraction:
    @pytest.mark.parametrize("params", [DILUTE0, ISING, XY, PERC, DENSE0])
    def test_integer_and_pair_forms_agree(self, params):
        a = flux_sum(params, cutoff=40, form="integer")
        b = flux_sum(params, cutoff=40, form="null_pairs")
        assert a == b

    def test_pair_forms_agree_float(self):
        params = params_from_n(1.5, "dilute")
        a = flux_sum(params, cutoff=40, form="integer", backend=Backend.FLOAT)
        b = flux_sum(params, cutoff=40, form="null_pairs", backend=Backend.FLOAT)
        assert len(a) == len(b)
        for ta, tb in zip(a, b):
            assert abs(ta.exponent - tb.exponent) < 1e-9
            assert abs(ta.coefficient - tb.coefficient) < 1e-9

    def test_parity_restricted_pairs_rejected(self):
        with pytest.raises(DomainError):
            flux_sum(ISING, cutoff=20, parity="even", form="null_pairs")


class TestCoefficientStructure:
    @pytest.mark.parametrize(
        "params", [DILUTE0, ISING, XY, PERC, DENSE0, params_from_n(-1.0, "dilute")]
    )
    def test_integer_coefficients_at_integer_n(self, params):
        z = partition_direct(params, cutoff=40)
        assert all(t.coefficient.denominator == 1 for t in z.terms)

    def test_potts3_even_sector_exact(self):
        z = partition_direct_parity(POTTS3, cutoff=40, parity="even")
        assert z.terms[0] == (-F(1, 30), 1)
        assert all(t.coefficient.denominator == 1 for t in z.terms)

    def test_potts3_odd_sector_leading(self):
        z = partition_direct_parity(
            POTTS3, cutoff=20, parity="odd", backend=Backend.FLOAT
        )
        lead = z.terms[0]
        # leading term sqrt(Q) q^{1/8} relative to the q^{-c/24} prefactor
        assert abs(lead.exponent - (0.125 - POTTS3.c / 24.0)) < 1e-12
        assert abs(lead.coefficient**2 - 3.0) < 1e-12

    def test_potts3_full_sum_requires_float(self):
        with pytest.raises(DomainError):
            partition_direct(POTTS3, cutoff=20, backend=Backend.EXACT)


class TestExactRule:
    """`annulus._exact_ok` is the one statement of when the exact backend
    runs; every caller that picks a backend asks it."""

    def test_predicate_matches_exact_flux_sum(self):
        registry = [2.0, math.sqrt(3), math.sqrt(2), 1.0, 0.0, -1.0,
                    -math.sqrt(2), -math.sqrt(3)]
        wraps = [None, 0.0, 0.5, 1.0, 2.0, -2.0, math.sqrt(2), -math.sqrt(2),
                 math.sqrt(3), -math.sqrt(3), 0.3]
        disagree = []
        for n in registry + [0.7, -1.3]:
            for phase in ("dilute", "dense"):
                params = params_from_n(n, phase)
                for n_prime in wraps:
                    w = None if n_prime is None else wrap_weight(phase, n_prime)
                    for parity in (None, "even", "odd"):
                        try:
                            flux_sum(params, w, 8, parity, Backend.EXACT)
                            built = True
                        except DomainError:
                            built = False
                        if annulus._exact_ok(params, w, parity) != built:
                            disagree.append((n, phase, n_prime, parity))
        assert not disagree

    @pytest.mark.parametrize("cutoff", [8, 37.5, 64, 256])
    def test_registry_float_is_the_exact_theta_rounded_once(self, cutoff):
        """Wherever `_exact_ok` holds, the floating flux sum is the exact one
        with each term rounded once, and the floating partition functions
        are the float Euler completion of that rounded theta."""
        def same(a, b):
            return a == b and hash(a) == hash(b) and repr(a.terms) == repr(b.terms)

        differ = []
        for chi_over_pi, *_ in _EXACT_ANGLES:
            n = 2.0 * math.cos(math.pi * float(chi_over_pi))
            for phase in ("dilute", "dense"):
                params = params_from_n(n, phase)
                for n_prime in (None, 0.0, 0.5, -1.25, 2.0, -2.0):
                    w = None if n_prime is None else wrap_weight(phase, n_prime)
                    cases = [(p, "integer") for p in (None, "even", "odd")
                             if annulus._exact_ok(params, w, p)]
                    if annulus._exact_ok(params, w):
                        cases.append((None, "null_pairs"))
                    for parity, form in cases:
                        args = (params, w, cutoff, parity)
                        got = flux_sum(*args, Backend.FLOAT, form)
                        want = flux_sum(*args, Backend.EXACT, form)._rounded()
                        if not same(got, want):
                            differ.append((n, phase, n_prime, parity, form))
                        if form == "null_pairs":
                            continue
                        completed = qseries._euler_kernel(want)
                        if parity is None:
                            z = partition_direct(params, w, cutoff, Backend.FLOAT)
                        else:
                            z = partition_direct_parity(params, w, cutoff, parity,
                                                        Backend.FLOAT)
                        if not same(z, completed):
                            differ.append(("Z", n, phase, n_prime, parity))
                    if n_prime is not None and annulus._exact_ok(params, w):
                        z = wrap_count_generating(params, n_prime, cutoff, Backend.FLOAT)
                        want = flux_sum(params, w, cutoff, None, Backend.EXACT)._rounded()
                        if not same(z, qseries._euler_kernel(want)):
                            differ.append(("wrap_count", n, phase, n_prime))
        assert not differ

    @pytest.mark.parametrize("p", [0, 4, 7])
    def test_float_cutoff_on_a_slot_is_taken_exactly(self, p):
        """A floating cutoff bounds exponents at its exact binary value.  At
        Ising dilute the double nearest sector p's exponent lies above it, so
        the exact theta keeps sector p, though cutoff * den rounds onto p's
        slot.  Rounded once, that term sits on the float cutoff itself, so the
        floating theta, whose terms lie below its cutoff, leaves it out."""
        (a, b, c, _), den = annulus._exponent(ISING, True)
        slot = (a * p + b) * p + c
        cutoff = slot / den
        assert F(cutoff) * den > slot == cutoff * den
        exact = flux_sum(ISING, None, F(cutoff), None, Backend.EXACT)
        assert exact.terms[-1].exponent == F(slot, den)
        got = flux_sum(ISING, None, cutoff, None, Backend.FLOAT)
        assert got == exact._rounded()
        assert got.terms == tuple((float(e), float(c)) for e, c in exact.terms[:-1])

    @pytest.mark.parametrize("spec,i", [(CharacterSpec(3, 4, 1, 1), 0),
                                        (CharacterSpec(3, 4, 1, 1), 2),
                                        (CharacterSpec(3, 4, 1, 3), 0),
                                        (CharacterSpec(3, 4, 1, 3), 3)])
    def test_float_cutoff_on_a_character_slot_is_taken_exactly(self, spec, i):
        """As for the flux sum: the double nearest the i-th exponent of an
        Ising character's numerator lies above it, though cutoff * D rounds
        onto its slot, so the exact numerator keeps term i.  Rounded once,
        that term sits on the cutoff, so the floating character is the one
        whose numerator stops below it; at i = 0 that numerator is empty."""
        D = 24 * spec.p_minor * spec.p_major
        slot = characters._character_theta(spec, 40)._slots(D, 1)[i][0]
        cutoff = slot / D
        assert F(cutoff) * D > slot == cutoff * D
        theta = characters._character_theta(spec, cutoff)
        assert len(theta) == i + 1 and theta.terms[-1].exponent == F(slot, D)
        got = rocha_caridi(spec, cutoff, Backend.FLOAT)
        below = qseries._euler_kernel(theta.truncate(F(slot, D))._rounded())
        assert got.cutoff == cutoff and got == below and got.is_zero == (i == 0)

    @pytest.mark.parametrize("g", [1, 2, 5, 7, 12, 15, 22, 26])
    def test_float_cutoff_on_a_pentagonal_slot_is_taken_exactly(self, g):
        """The floating Euler product is the exact one below the same float
        cutoff, rounded once: on each side of pentagonal exponent g and on it."""
        for cutoff in (math.nextafter(g, -math.inf), float(g), math.nextafter(g, math.inf)):
            exact = pentagonal_series(F(cutoff))
            assert (exact.terms[-1].exponent == g) == (cutoff > g)
            got = pentagonal_series(cutoff, Backend.FLOAT)
            assert got == exact._rounded() and got.cutoff == cutoff
            assert got.terms == tuple((float(e), float(c)) for e, c in exact.terms)

    @pytest.mark.parametrize("call", [
        lambda: flux_sum(params_from_n(1.0, "dilute"), None, 0.4791666666666667, None,
                         Backend.FLOAT),
        lambda: flux_sum(params_from_n(2.0, "dense"), None, 0.20833333333333334, None,
                         Backend.FLOAT),
        lambda: flux_sum(params_from_n(-1.0, "dilute"), None, 0.775, None, Backend.FLOAT),
        lambda: loopgas.saw_loop_dense(0.9583333333333334, Backend.FLOAT),
    ], ids=["ising dilute", "n=2 dense", "n=-1 dilute", "saw dense"])
    def test_a_term_rounded_onto_the_cutoff_is_dropped(self, call):
        """An exact term just below a float cutoff can round onto it; the
        floating series keeps only terms below its cutoff, as from_terms does."""
        got = call()
        for series in got if isinstance(got, tuple) else (got,):
            assert series._n and all(e < series.cutoff for e in series._n)

    def test_duality_check_asks_the_rule(self, monkeypatch):
        """The direct channel's theta is exact where the rule holds (built by
        partition_direct, which completes it) and floating elsewhere."""
        backends = []
        real = annulus.flux_sum

        def recording(params, w, cutoff, parity, backend):
            backends.append(backend)
            return real(params, w, cutoff, parity, backend)

        monkeypatch.setattr(annulus, "flux_sum", recording)
        duality_check(params_from_n(1.5, "dilute"), ratio=0.7)
        duality_check(POTTS3, ratio=1.0)  # registry coupling, irrational n'
        duality_check(ISING, wrap_weight("dilute", 0.3), ratio=1.0)
        duality_check(ISING, ratio=1.0)
        assert backends == [Backend.FLOAT] * 3 + [Backend.EXACT]


class TestNaive:
    def test_rogue_p_minus_one_exponent(self):
        z = partition_naive(ISING, cutoff=20)
        gaps = [float(t.exponent - z.terms[0].exponent) for t in z.terms[:3]]
        assert abs(gaps[1] - 1.0 / 6.0) < 1e-12  # h(-1) = g/4 + (1-g)/2

    def test_free_boson_all_unit_weights(self):
        z = partition_naive(XY, cutoff=12)
        hi = 12 + 1 / 24
        theta = GenSeries.from_terms(
            [(0.0, 1.0)] + [(p * p / 4.0, 2.0) for p in range(1, 8)],
            hi,
            Backend.FLOAT,
        )
        expected = (theta * euler_inverse(hi, Backend.FLOAT)).shift(-1 / 24)
        zt = z.truncate(expected.cutoff)
        assert len(zt) == len(expected.terms)
        for t, u in zip(zt.terms, expected.terms):
            assert abs(t.exponent - u.exponent) < 1e-9
            assert abs(t.coefficient - u.coefficient) < 1e-9

    def test_crossed_leading_power_not_minus_one_twelfth(self):
        # The un-subtracted sum still Poisson-resums to leading power -c/12
        # (the m = 0 Gaussian survives with coefficient 1); what breaks is the
        # boundary spectrum and the entropy prefactor, not the leading power.
        z = partition_naive(ISING, cutoff=64)
        fit = asymptote_fit(
            lambda qt: z.eval_at(math.exp(2.0 * math.pi**2 / math.log(qt))),
            (1e-6, 1e-4),
        )
        assert abs(fit.exponent_fit - (-ISING.c / 12.0)) < 1e-4
        # prefactor (2/g)^{1/2} instead of the correct b_0^2 = 1
        assert abs(fit.prefactor_fit - math.sqrt(2.0 / ISING.g)) < 1e-3
        assert abs(fit.prefactor_fit - boundary_g_factor(ISING)) > 0.2


class TestCrossed:
    @pytest.mark.parametrize("params", [DILUTE0, ISING, POTTS3, PERC])
    def test_leading_is_boundary_entropy(self, params):
        z = partition_crossed(params, cutoff=30)
        assert abs(float(z.terms[0].exponent) - (-params.c / 12.0)) < 1e-12
        assert abs(z.terms[0].coefficient - boundary_g_factor(params)) < 1e-12

    def test_exponent_ladder_is_even_electric(self):
        z = partition_crossed(ISING, cutoff=10)
        ladder = {electric_dimension(ISING, 2.0 * m) for m in (-1, 0, 1)}
        got = [float(t.exponent) + ISING.c / 12.0 for t in z.terms[:3]]
        assert all(any(abs(e - x) < 1e-9 for x in ladder) for e in got)

    def test_free_boson_limit_pairs(self):
        z = partition_crossed(XY, cutoff=10)
        assert abs(z.terms[0].coefficient - math.sqrt(2.0)) < 1e-12
        assert abs(float(z.terms[0].exponent) + 1.0 / 12.0) < 1e-12
        # qtilde^{-1/12+2}: theta pair m = +-1 (2 sqrt2) plus euler factor (sqrt2)
        assert abs(z.coefficient(-1.0 / 12.0 + 2.0) - 3.0 * math.sqrt(2.0)) < 1e-12

    def test_wrap_two_on_generic_point_has_log_terms(self):
        with pytest.raises(IdentityError):
            partition_crossed(ISING, wrap_weight("dilute", 2.0), 20)

    @staticmethod
    def _pairs(phase, n_prime):
        """The pairing the crossed table takes (weight(j < 0) is None only when
        paired), against the float rule that it replaced, |sin(chi')| < 1e-9."""
        w = wrap_weight(phase, n_prime)
        paired = annulus._crossed_table(PERC, w)[2](-1) is None
        assert paired == (abs(math.sin(w.chi_prime)) < 1e-9)
        return paired

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-2.0, 2.0), st.sampled_from(["dilute", "dense"]))
    @example(2.0, "dilute")
    @example(2.0, "dense")
    @example(1.9999999999999998, "dilute")
    @example(1.9999999999999998, "dense")
    @example(2.0 - 1e-9, "dilute")
    @example(2.0 - 1e-9, "dense")
    @example(-2.0, "dilute")
    @example(-2.0, "dense")
    @example(-1.9999999999999998, "dilute")
    @example(-1.9999999999999998, "dense")
    @example(-2.0 + 1e-9, "dilute")
    @example(-2.0 + 1e-9, "dense")
    def test_pairing_at_random_n_prime(self, n_prime, phase):
        assert self._pairs(phase, n_prime) == (abs(n_prime) == 2.0)

    @pytest.mark.parametrize("n_prime", [2.0, -2.0])
    @pytest.mark.parametrize("phase", ["dilute", "dense"])
    @pytest.mark.parametrize("angle", [a[0] for a in _EXACT_ANGLES]
                             + [F(3, 5), F(4, 5), F(5, 7), F(6, 7), F(7, 9)], ids=str)
    def test_ln_verdict_is_the_retired_float_rule(self, angle, phase, n_prime):
        """At every registry coupling, and at the dense g = 2/5, 1/5, 2/7, 1/7,
        2/9 off it, the check of k/g refuses exactly the pairs j, up to order
        1024, whose ln(qtilde) coefficient 2 u sin(u/g)/(pi^2 g cos(chi')) the
        retired rule put above 1e-9."""
        params = params_from_n(2.0 * math.cos(math.pi * float(angle)), phase)
        w = wrap_weight(phase, n_prime)
        u, vertex, weight = annulus._crossed_table(params, w)
        f = lambda m: -params.c / 12.0 + annulus._crossed_gap(params, u(m))
        a, g, s0 = 2.0 / params.g, params.g, math.cos(w.chi_prime)
        support = [j for j, _ in qseries._integer_support(a, -2.0 * a * vertex, f(0), 1024.0, f)
                   if j >= 0]
        assert support[:2] == [0, 1]
        for j in support:
            pair = 1.0 if u(j) == 0.0 else 2.0
            retired = abs(pair * u(j) * math.sin(u(j) / g) / (math.pi**2 * g * s0)) > 1e-9
            try:
                weight(j)
                refused = False
            except IdentityError:
                refused = True
            assert refused == retired, j

    @pytest.mark.parametrize("k0, N", [(2, 5), (1, 5), (2, 7), (1, 7), (2, 9)])
    def test_paired_limit_off_the_registry_is_the_direct_channel(self, k0, N):
        """At dense g = k0/N, outside the registry, n' = 2 (k0 = 2) or -2 (k0 = 1)
        makes every k/g an integer, and the paired crossed series with no ln(qtilde)
        term must agree with the direct channel."""
        params = params_from_n(2.0 * math.cos(math.pi * (1 - k0 / N)), "dense")
        assert params.g_exact is None
        ev = duality_check(params, wrap_weight("dense", 2.0 if k0 == 2 else -2.0), 1.0, 64)
        assert abs(ev.residual) < 1e-12


def test_float_series_build_no_terms_until_read(monkeypatch):
    """A floating series keeps its exponents and coefficients as two tuples:
    building the generic-coupling partition functions, evaluating, serialising
    and every operation that reads the tuples build no SeriesTerm."""
    generic = params_from_n(1.3, "dense")
    builds = [lambda: partition_direct(generic, None, 256, Backend.FLOAT),
              lambda: partition_crossed(generic, None, 256),
              lambda: partition_naive(generic, None, 256)]
    expected = [build() for build in builds]

    def refuse(*args):
        raise AssertionError("a floating series built its terms")

    monkeypatch.setattr(qseries, "SeriesTerm", refuse)
    for build, want in zip(builds, expected):
        Z = build()
        Z.eval_at(0.5)
        assert Z == want and hash(Z) == hash(want)
        assert Z.to_json_dict() == want.to_json_dict()
        assert Z.to_csv_rows() == want.to_csv_rows()
        results = [Z, -Z, Z.truncate(Z.cutoff / 2), Z.shift(0.25), Z.dilate(2.0), Z * 1.5]
        for s in results:
            s.eval_at(0.3)
        assert all(s._terms is None for s in results)


def test_flux_range_is_the_tracers_sector_count(monkeypatch):
    """perfbench's tracer reads `annulus._flux_range` when it installs, sets a
    counting wrapper in its place and adds the length of each result to
    `annulus.flux_sum.sectors`.  That needs one call per `flux_sum`, in both
    backends, and per `partition_naive`, made through the module global, and a
    list as long as the number of sectors below the cutoff."""
    flux_range, seen = annulus._flux_range, []

    def counted(*args, **kwargs):
        seen.append(flux_range(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(annulus, "_flux_range", counted)
    generic = params_from_n(1.3, "dense")
    builds = [(ISING, lambda: flux_sum(ISING, None, 40)),
              (ISING, lambda: flux_sum(ISING, None, 40, None, Backend.FLOAT)),
              (generic, lambda: flux_sum(generic, None, 40, None, Backend.FLOAT)),
              (generic, lambda: partition_naive(generic, None, 40)),
              (ISING, lambda: partition_naive(ISING, None, 40))]
    for k, (params, build) in enumerate(builds):
        build()
        assert len(seen) == k + 1 and isinstance(seen[-1], list)
        g = params.g_exact if params is ISING else params.g
        below = [p for p in range(-100, 101)
                 if g * p * p / 4 - (1 - g) * p / 2 < 40 + (1 - 6 * (1 - g) ** 2 / g) / 24]
        assert len(seen[-1]) == len(below) > 5


class TestDuality:
    @pytest.mark.parametrize("params", EXACT_POINTS)
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_exact_points(self, params, ratio):
        ev = duality_check(params, ratio=ratio, cutoff=64)
        assert ev.residual < 1e-8

    def test_irrational_coupling_modified_wrap(self):
        params = params_from_n(1.5, "dilute")
        ev = duality_check(params, wrap_weight("dilute", 0.7), ratio=0.7, cutoff=64)
        assert ev.residual < 1e-6

    def test_conjugate_moduli_relation(self):
        ev = duality_check(ISING, ratio=1.7, cutoff=64)
        assert abs(math.log(ev.q) * math.log(ev.q_tilde) - 2.0 * math.pi**2) < 1e-12
        assert ev.residual == abs(ev.direct_value - ev.crossed_value)

    def test_ratio_domain(self):
        with pytest.raises(DomainError):
            duality_check(ISING, ratio=0.05)

    def test_tail_bound_error(self):
        with pytest.raises(TailBoundError):
            duality_check(ISING, ratio=0.2, cutoff=8)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-8])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(DomainError):
            duality_check(ISING, ratio=0.2, cutoff=8, tol=tol)

    @pytest.mark.parametrize("n,phase,order", [
        (1.3, "dense", 1024), (0.7, "dilute", 256), (-1.1, "dense", 512)])
    def test_one_evaluator_builds_each_column_once(self, monkeypatch, n, phase, order):
        """One evaluator fed ratios in shuffled order returns what separate
        duality_check calls return.  Per channel, the tail reads the top
        column's last class first; the sum's windows then run on from column
        0, each from where the last one ended, and stop short of the top."""
        params = params_from_n(n, phase)
        ratios = [0.2, 0.3, 0.5, 0.8, 1.0, 1.7, 2.5, 4.0, 5.0]
        random.Random(f"{n} {phase}").shuffle(ratios)
        want = [duality_check(params, None, r, order) for r in ratios]
        setup, channels = qseries._float_setup, []

        def recorded(theta, step):
            *head, (width, lo, R, M, fill) = setup(theta, step)
            calls = []
            channels.append((width, R, calls))

            def counted(k0, k1, r0=0):
                calls.append((k0, k1, r0))
                return fill(k0, k1, r0)

            return (*head, (width, lo, R, M, counted))

        monkeypatch.setattr(qseries, "_float_setup", recorded)
        evaluate = annulus._duality_evaluator(params, None, order, 1e-8)
        assert [repr(evaluate(r)) for r in ratios] == [repr(ev) for ev in want]
        assert len(channels) == 2
        for width, R, calls in channels:
            assert calls[0] == (width - 1, width, R - 1)
            ends = [0] + [k1 for _, k1, _ in calls[1:]]
            assert calls[1:] == [(k0, k1, 0) for k0, k1 in zip(ends, ends[1:])]
            assert ends[-1] < width - 1

    @pytest.mark.parametrize("n,want", [(1.0, [2, 2]), (math.sqrt(3), [1, 1, 2, 2])])
    def test_a_full_build_completes_from_its_own_set_up(self, monkeypatch, n, want):
        """A channel with no class path (rational g: classes of three terms) is
        built whole by `_complete`, from the full build's own set-up: at order
        256, the evaluator's step-2 set-up of the crossed theta and the full
        build's, and at sqrt3 dense, where the direct channel is floating, the
        same at step 1."""
        setup, steps = qseries._float_setup, []

        def counted(theta, step):
            steps.append(step)
            return setup(theta, step)

        monkeypatch.setattr(qseries, "_float_setup", counted)
        ev = duality_check(params_from_n(n, "dense"), None, 1.0, 256)
        assert sorted(steps) == want
        monkeypatch.undo()
        assert repr(ev) == repr(duality_check(params_from_n(n, "dense"), None, 1.0, 256))


class TestBoundaryGFactor:
    def test_ising_free_boundary(self):
        assert abs(boundary_g_factor(ISING) - 1.0) < 1e-12

    def test_dense_ising(self):
        assert abs(boundary_g_factor(PERC) - 2.0) < 1e-12

    def test_dilute_polymers(self):
        assert abs(boundary_g_factor(DILUTE0) - 1.0) < 1e-12

    def test_free_boson_limit(self):
        assert boundary_g_factor(XY) == math.sqrt(2.0)

    def test_matches_crossed_channel_coefficient(self):
        for params in (ISING, POTTS3, PERC):
            z = partition_crossed(params, cutoff=20)
            assert abs(z.terms[0].coefficient - boundary_g_factor(params)) < 1e-12

    # registry and generic n in both phases; dense n = 0, -1, -sqrt2, -sqrt3
    # are left out because there g = 1/k and b_0^2 is rounding noise about 0
    @pytest.mark.parametrize("n,phase", [
        (n, phase)
        for n in (2.0, math.sqrt(3.0), math.sqrt(2.0), 1.0, 0.0, -1.0,
                  -math.sqrt(2.0), -math.sqrt(3.0), 1.999999999, 1.3, 0.7, -1.5)
        for phase in ("dilute", "dense")
        if not (phase == "dense" and n in (0.0, -1.0, -math.sqrt(2.0), -math.sqrt(3.0)))
    ])
    def test_is_the_m0_crossed_coefficient(self, n, phase):
        params = params_from_n(n, phase)
        b0sq = boundary_g_factor(params)
        assert partition_crossed(params, cutoff=30).terms[0].coefficient == b0sq
        if n != 2.0:  # sin(chi) = 0: leading_asymptote refuses the paired limit
            assert leading_asymptote(params)[0] == b0sq

    @pytest.mark.parametrize("phase", ["dilute", "dense"])
    def test_near_free_boson_against_taylor_reference(self, phase):
        # (2/g)^{1/2} sin(chi/g)/sin(chi) with both sines summed in Fractions
        # at the float chi and g; chi ~ 3e-5, so ten Taylor terms are exact
        params = params_from_n(2.0 - 1e-9, phase)

        def sin(x):
            term, total = x, x
            for k in range(1, 10):
                term = -term * x * x / ((2 * k) * (2 * k + 1))
                total += term
            return total

        chi, g = F(params.chi), F(params.g)
        ref = math.sqrt(2.0 / params.g) * float(sin(chi / g) / sin(chi))
        assert abs(boundary_g_factor(params) - ref) < 1e-14 * ref


class TestLeadingAsymptote:
    def test_identity_channel(self):
        pref, expo = leading_asymptote(ISING)
        assert expo == 0.0
        assert abs(pref - boundary_g_factor(ISING)) < 1e-12

    def test_percolation_magnetic_exponent(self):
        pref, expo = leading_asymptote(PERC, wrap_weight("dense", 0.0))
        assert abs(expo - 5.0 / 48.0) < 1e-12
        assert abs(pref - math.sqrt(1.5)) < 1e-12

    def test_fit_reproduces_both_numbers(self):
        # fitted slope carries the extra -c/12 bookkeeping of stored exponents
        z = partition_crossed(ISING, cutoff=64)
        fit = asymptote_fit(lambda qt: z.eval_at(qt), (1e-6, 1e-4))
        pref, expo = leading_asymptote(ISING)
        assert abs(fit.exponent_fit - (-ISING.c / 12.0 + expo)) < 0.01 * abs(
            -ISING.c / 12.0 + expo
        )
        assert abs(fit.prefactor_fit - pref) < 0.01 * abs(pref)

    def test_wrap_two_rejected(self):
        with pytest.raises(DomainError):
            leading_asymptote(ISING, wrap_weight("dilute", 2.0))

    @pytest.mark.parametrize("phase", ["dilute", "dense"])
    @pytest.mark.parametrize("n", [
        -1.9, -math.sqrt(3.0), -math.sqrt(2.0), -1.0, -0.5, 0.0, 0.3, 0.7, 1.0,
        1.3, math.sqrt(2.0), math.sqrt(3.0),
    ])
    def test_exponent_is_the_crossed_gap_bit_for_bit(self, n, phase):
        """The exponent is the m = 0 gap of the crossed table; the closed form
        (chi'^2 - chi^2)/(2 pi^2 g) it replaced is the oracle, exact to the bit
        at every wrap weight with sin(chi') != 0."""
        params = params_from_n(n, phase)
        for n_prime in (None, 0.0, 0.5, 1.0, 1.3, -0.7, -1.5):
            w = default_wrap(params) if n_prime is None else wrap_weight(phase, n_prime)
            closed = (w.chi_prime**2 - params.chi**2) / (2.0 * math.pi**2 * params.g)
            assert leading_asymptote(params, w)[1] == closed


class TestCutoffGuards:
    def test_cutoff_below_identity_term(self):
        with pytest.raises(DomainError):
            partition_direct(PERC, cutoff=0)

    def test_crossed_cutoff_guard(self):
        with pytest.raises(DomainError):
            partition_crossed(DENSE0, cutoff=-1)

    @pytest.mark.parametrize("n, order, cutoff", [
        (0.3, 1024, 1023.9999999999999),
        (1.0, 256, 255.99999999999997),
        (0.7, 256, 256.0),
    ])
    def test_float_cutoff_drift_is_pinned(self, n, order, cutoff):
        """Known defect, pinned: the float Euler completion's cutoff is the
        Cauchy product's, span * step + low rounded, which can fall one ulp
        short of the cutoff asked for.  The recorded CLI outputs carry these
        bits, so the fix comes with their re-recording and flips this test."""
        Z = partition_direct(params_from_n(n, "dilute"), None, order, Backend.FLOAT)
        assert repr(Z.cutoff) == repr(cutoff)

    def test_non_finite_cutoff_in_float_builders(self):
        """partition_naive and partition_crossed refuse inf, -inf and NaN.
        A +inf cutoff once walked flux sectors without end, so the check runs
        in a child process with a time and an address-space limit."""
        code = textwrap.dedent("""
            import math
            from loopgas import (DomainError, params_from_n, partition_crossed,
                                 partition_naive)
            params = params_from_n(1.0, "dilute")
            for build in (partition_naive, partition_crossed):
                for cutoff in (math.inf, -math.inf, math.nan):
                    try:
                        build(params, None, cutoff)
                    except DomainError:
                        continue
                    raise SystemExit(f"{build.__name__}({cutoff}) did not raise")
        """)

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        src = os.path.dirname(os.path.dirname(loopgas.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), preexec_fn=limit, timeout=30,
        )
        assert proc.returncode == 0, proc.stderr[-500:]
