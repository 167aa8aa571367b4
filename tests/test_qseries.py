"""Series arithmetic, Euler/pentagonal/eta building blocks, serialization."""

import contextlib
import gzip
import itertools
import json
import math
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import loopgas
import series_oracle as oracle
from loopgas import (
    Backend,
    DomainError,
    GenSeries,
    IdentityError,
    TailBoundError,
    dedekind_eta_series,
    eta_modular_check,
    euler_inverse,
    euler_product,
    eval_at,
    max_abs_coeff_diff,
    pentagonal_series,
    qseries,
)
from loopgas.errors import BackendMismatchError
from loopgas.params import _EXACT_ANGLES


def S(pairs, cutoff, backend=Backend.EXACT):
    return GenSeries.from_terms(pairs, cutoff, backend)


# -- brute-force partition oracles (independent of the pentagonal recurrence) --


def partitions_by_enumeration(n):
    """Count partitions by generating every one of them."""
    def gen(rem, maxpart):
        if rem == 0:
            yield ()
            return
        for first in range(min(rem, maxpart), 0, -1):
            for rest in gen(rem - first, first):
                yield (first,) + rest
    return sum(1 for _ in gen(n, n))


def partitions_by_coin_dp(kmax):
    """Count partitions by the coin-change dynamic program."""
    table = [1] + [0] * kmax
    for part in range(1, kmax + 1):
        for total in range(part, kmax + 1):
            table[total] += table[total - part]
    return table


class TestAdd:
    def test_one_minus_q_plus_q(self):
        assert S([(0, 1), (1, -1)], 10) + S([(1, 1)], 10) == S([(0, 1)], 10)

    def test_pentagonal_cancels_itself(self):
        p = pentagonal_series(30)
        assert (p + (-p)).is_zero

    def test_crossing_bracket_small_k(self):
        # the two k in {-1,0,1} percolation families, combined by hand
        fam1 = S([(0, 1), (2, 1), (F(10, 3), 1)], 6)
        fam2 = S([(F(1, 3), -1), (5, -1), (1, -1)], 6)
        expected = S(
            [(0, 1), (F(1, 3), -1), (1, -1), (2, 1), (F(10, 3), 1), (5, -1)], 6
        )
        assert fam1 + fam2 == expected

    def test_backend_mismatch(self):
        with pytest.raises(BackendMismatchError):
            S([(0, 1)], 5) + S([(0, 1)], 5, Backend.FLOAT)


class TestMul:
    def test_telescoping_geometric(self):
        geo = S([(k, 1) for k in range(20)], 20)
        assert S([(0, 1), (1, -1)], 20) * geo == S([(0, 1)], 20)

    def test_pentagonal_times_euler_inverse(self):
        prod = pentagonal_series(40) * euler_inverse(40)
        assert prod == S([(0, 1)], 40)

    def test_eval_consistency(self):
        a = euler_inverse(30)
        b = pentagonal_series(30).shift(F(1, 3))
        ab, tail = (a * b).eval_at(0.3)
        av, _ = a.eval_at(0.3)
        bv, _ = b.eval_at(0.3)
        assert abs(ab - av * bv) < 1e-12 + tail

    def test_scalar(self):
        assert S([(1, 3)], 5) * F(1, 3) == S([(1, 1)], 5)


class TestEulerInverse:
    def test_first_coefficients(self):
        s = euler_inverse(6)
        assert [s.coefficient(k) for k in range(6)] == [1, 1, 2, 3, 5, 7]

    def test_constant_term(self):
        assert euler_inverse(2).coefficient(0) == 1

    def test_inverse_relation(self):
        assert euler_inverse(25) * pentagonal_series(25) == S([(0, 1)], 25)

    def test_against_enumeration(self):
        s = euler_inverse(13)
        for k in range(13):
            assert s.coefficient(k) == partitions_by_enumeration(k)

    def test_against_coin_dp_to_60(self):
        s = euler_inverse(61)
        dp = partitions_by_coin_dp(60)
        for k in range(61):
            c = s.coefficient(k)
            assert c == dp[k]
            assert isinstance(c, F) and c.denominator == 1 and c > 0

    def test_domain(self):
        with pytest.raises(DomainError):
            euler_inverse(0)


class TestPartitionTable:
    def test_known_values(self):
        assert qseries._partition_numbers(100)[-1] == 190569292
        assert (qseries._partition_numbers(1000)[-1]
                == 24061467864032622473692149727991)

    def test_prefix_after_a_longer_call(self):
        qseries._partition_numbers(1000)
        assert qseries._partition_numbers(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]

    def test_returned_list_is_a_copy(self):
        p = qseries._partition_numbers(20)
        p[5] = -1
        p.append(0)
        assert qseries._partition_numbers(21)[5:] == [7, 11, 15, 22, 30, 42, 56, 77,
                                                      101, 135, 176, 231, 297, 385,
                                                      490, 627, 792]

    @pytest.mark.parametrize("orders", [(1500,), (300, 1500), (5, 100, 1457)])
    def test_the_recurrence_counts_partitions(self, monkeypatch, orders):
        # from the table at import, grown in one call or extended from 300; 5, 100
        # and 1457 are pentagonal, so each extension's last k reads p(0)
        monkeypatch.setattr(qseries, "_PARTITIONS", [1])
        for K in orders:
            assert qseries._partition_numbers(K) == oracle.partition_counts(K)

    def test_the_table_builds_no_series(self, monkeypatch):
        # p(k) grows from the pentagonal numbers' integer support alone
        def refuse(*args, **kwargs):
            raise AssertionError("_partition_numbers built a series")

        monkeypatch.setattr(qseries, "_PARTITIONS", [1])
        monkeypatch.setattr(GenSeries, "_on_lattice", refuse)
        assert qseries._partition_numbers(300) == oracle.partition_counts(300)

    def test_nothing_computed_at_import(self):
        code = "import loopgas, loopgas.cli; print(len(loopgas.qseries._PARTITIONS))"
        src = os.path.dirname(os.path.dirname(loopgas.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env).stdout
        assert out.strip() == "1"


class TestExactCutoff:
    def test_cutoff_just_above_an_integer_keeps_the_last_term(self):
        c = F(10**17 + 1, 10**17)
        assert euler_inverse(c) == S([(0, 1), (1, 1)], c)
        assert pentagonal_series(c) == oracle.euler_product_expanded(c) == S([(0, 1), (1, -1)], c)
        assert euler_product(c) == pentagonal_series(c)

    def test_float_cutoff_is_taken_exactly(self):
        for make in (euler_inverse, euler_product, pentagonal_series,
                     dedekind_eta_series):
            assert make(7.5) == make(F(15, 2))
        assert pentagonal_series(7.5) == oracle.euler_product_expanded(7.5)
        assert euler_inverse(10).truncate(7.5) == euler_inverse(F(15, 2))
        assert GenSeries.zero(7.5) == GenSeries.zero(F(15, 2))

    def test_float_coefficients_still_must_be_integral(self):
        with pytest.raises(DomainError):
            S([(0, 0.5)], 5)
        with pytest.raises(DomainError):
            S([(0.5, 1)], 5)

    @pytest.mark.parametrize("backend", list(Backend))
    @pytest.mark.parametrize("cutoff", [math.inf, -math.inf, math.nan])
    def test_non_finite_cutoff_is_a_domain_error(self, cutoff, backend):
        makers = (
            lambda: GenSeries.zero(cutoff, backend),
            lambda: GenSeries.from_terms([(0, 1)], cutoff, backend),
            lambda: euler_inverse(10, backend).truncate(cutoff),
            lambda: euler_inverse(cutoff, backend),
            lambda: euler_product(cutoff, backend),
            lambda: pentagonal_series(cutoff, backend),
            lambda: dedekind_eta_series(cutoff, backend),
        )
        for make in makers:
            with pytest.raises(DomainError, match="finite"):
                make()


# (cutoff, D) with the cutoff an int, a Fraction or a float, anywhere, on a
# slot of (1/D)Z or next to one, and below zero as often as above it
slot_cutoffs = st.integers(1, 10**4).flatmap(lambda D: st.tuples(st.one_of(
    st.integers(-10**6, 10**6),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(lambda n: F(n, D)),
    st.integers(-10**6, 10**6).map(lambda n: n / D),
    st.integers(-10**6, 10**6).map(lambda n: math.nextafter(n / D, math.inf)),
), st.just(D)))


@settings(max_examples=300, deadline=None)
@given(slot_cutoffs)
@example((F(-7, 3), 3))
@example((-0.5, 2))
@example((0.1, 10))  # 0.1 * 10 rounds onto slot 1, but F(0.1) * 10 lies above it
@example((-0.0, 7))
def test_slot_top_is_the_ceiling_of_the_exact_product(case):
    """`_slot_top(cutoff, D)` is the least n with n/D >= cutoff, the cutoff at
    its exact binary value: slot n lies below the cutoff iff n < it."""
    cutoff, D = case
    top = qseries._slot_top(cutoff, D)
    assert type(top) is int and top == math.ceil(F(cutoff) * D)
    assert F(top - 1, D) < cutoff <= F(top, D)


class TestPentagonal:
    def test_terms_up_to_15(self):
        s = pentagonal_series(16)
        expected = [(0, 1), (1, -1), (2, -1), (5, 1), (7, 1), (12, -1), (15, -1)]
        assert [(int(e), int(c)) for e, c in s.terms] == expected

    def test_q3_absent(self):
        assert pentagonal_series(10).coefficient(3) == 0

    def test_matches_direct_product_expansion(self):
        for k in (31, 40, 256, 400):
            assert pentagonal_series(k) == euler_product(k) == oracle.euler_product_expanded(k)


class TestDedekindEta:
    def test_leading_and_second_term(self):
        s = dedekind_eta_series(4)
        assert s.terms[0] == (F(1, 24), 1)
        assert s.terms[1] == (F(25, 24), -1)

    def test_eval_positive(self):
        v, tail = dedekind_eta_series(40).eval_at(0.1)
        assert v > 0 and tail < 1e-12

    def test_cutoff_too_small(self):
        with pytest.raises(DomainError):
            dedekind_eta_series(F(1, 24))


class TestEtaModular:
    @pytest.mark.parametrize("ratio", [1.0, 2.0, 0.5])
    def test_residual_small(self, ratio):
        assert eta_modular_check(ratio, order=64) < 1e-10

    def test_tail_error(self):
        with pytest.raises(TailBoundError):
            eta_modular_check(0.05, order=10, tol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            eta_modular_check(-1.0)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-10])
    def test_tolerance_must_be_positive(self, tol):
        with pytest.raises(DomainError):
            eta_modular_check(0.05, order=10, tol=tol)


class TestEvalAt:
    def test_constant(self):
        v, tail = eval_at(GenSeries.constant(1, 64), 0.5)
        assert v == 1.0 and tail < 1e-15

    def test_euler_inverse_vs_product(self):
        v, _ = euler_inverse(64).eval_at(0.1)
        prod = 1.0
        for r in range(1, 41):
            prod *= 1.0 - 0.1**r
        assert abs(v - 1.0 / prod) < 1e-12

    def test_domain(self):
        s = GenSeries.constant(1, 8)
        for q in (0.0, 1.0, 1.5, -0.2):
            with pytest.raises(DomainError):
                s.eval_at(q)

    def test_is_the_sequential_sum_bit_for_bit(self):
        """eval_at against one Python loop over the terms (`eval_sequential`):
        exact series on lattices with D, C > 1, and floating ones at generic
        and registry couplings, value and tail down to the last bit."""
        from loopgas import annulus, observables, params_from_n

        exact = [observables.crossing_probability(96) * F(1, 3),
                 observables.saw_loop_dilute(96) * F(-2, 7)]
        assert all(s._D > 1 and s._C > 1 for s in exact)
        floats = [annulus.partition_direct(params_from_n(n, phase), None, 128, Backend.FLOAT)
                  for n, phase in [(1.3, "dense"), (0.7, "dilute"), (1.0, "dilute"),
                                   (math.sqrt(2.0), "dilute")]]
        floats.append(annulus.partition_crossed(params_from_n(-1.07, "dense"), None, 140))
        assert all(s.backend is Backend.FLOAT and len(s) > 50 for s in floats)
        for s in exact + floats:
            for q in (0.01, 0.3, 0.6, 0.9):
                assert repr(s.eval_at(q)) == repr(oracle.eval_sequential(s, q))

    @pytest.mark.parametrize("cutoff, q, tail", [
        (2000.0, 0.5, 4 * math.exp(math.log(1e308) - 2000 * math.log(2)) / 0.5),  # inf * 0.0
        (20.0, 0.5, 1e308 / 2**20 * 4 / 0.5),                                       # inf * 2^-20
    ])
    def test_tail_is_never_nan(self, cutoff, q, tail):
        """Where 4 |last| overflows, whether q^cutoff underflows or not, the tail
        bound is taken through logarithms instead of reading nan or inf."""
        value, got = GenSeries.from_terms([(0.0, 1e308)], cutoff, Backend.FLOAT).eval_at(q)
        assert value == 1e308 and math.isfinite(got)
        assert got == pytest.approx(tail, rel=1e-12)

    def test_tail_overflows_only_where_the_bound_does(self):
        """inf only where the bound itself leaves the doubles; a zero series
        whose q^cutoff overflows has a value of 0.0 and an infinite bound."""
        assert GenSeries.from_terms([(0.0, 1e308)], 1e-4, Backend.FLOAT).eval_at(0.01) == (
            1e308, math.inf)
        assert GenSeries.zero(-2000).eval_at(0.5) == (0.0, math.inf)

    def test_monotone_in_truncation_order(self):
        # increasing the cutoff moves the value by less than the old tail bound
        for q in (0.2, 0.4, 0.6):
            lo, hi = euler_inverse(20), euler_inverse(80)
            v1, tail1 = lo.eval_at(q)
            v2, _ = hi.eval_at(q)
            assert abs(v2 - v1) <= tail1


class TestMaxAbsCoeffDiff:
    def test_exponents_one_ulp_apart_are_one_term(self):
        e = 3 - 1 / 24
        a = S([(e, 5.0)], 10, Backend.FLOAT)
        b = S([(math.nextafter(e, 0.0), 5.0)], 10, Backend.FLOAT)
        assert a.terms[0].exponent != b.terms[0].exponent
        assert max_abs_coeff_diff(a, b) == 0.0


# -- ring axioms on random exact series -----------------------------------------

exponents = st.fractions(
    min_value=-4, max_value=12, max_denominator=8
)
coefficients = st.fractions(min_value=-5, max_value=5, max_denominator=4)
series_strategy = st.builds(
    lambda pairs, cutoff: S(pairs, cutoff),
    st.lists(st.tuples(exponents, coefficients), min_size=0, max_size=6),
    st.integers(min_value=6, max_value=14),
)


def common_truncate(a, b):
    eff = min(a.cutoff, b.cutoff)
    return a.truncate(eff), b.truncate(eff)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_add_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_add_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@settings(max_examples=60, deadline=None)
@given(series_strategy, series_strategy)
def test_mul_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_mul_associates_below_common_cutoff(a, b, c):
    x, y = common_truncate((a * b) * c, a * (b * c))
    assert x == y


@settings(max_examples=40, deadline=None)
@given(series_strategy, series_strategy, series_strategy)
def test_distributes_below_common_cutoff(a, b, c):
    x, y = common_truncate(a * (b + c), a * b + a * c)
    assert x == y


# -- the Euler multiply on the exponent lattice ---------------------------------

lattice_exponents = st.sampled_from([1, 2, 3, 8, 24, 48, 120]).flatmap(
    lambda d: st.integers(-4 * d, 16 * d).map(lambda n: F(n, d))
)
lattice_theta = st.builds(
    lambda pairs, cancel, cutoff: S(
        pairs + [(e + 1, -c) for e, c in pairs[:cancel]], cutoff
    ),
    st.lists(st.tuples(lattice_exponents, coefficients), min_size=0, max_size=8),
    st.integers(min_value=0, max_value=3),
    st.fractions(min_value=F(1, 3), max_value=20, max_denominator=11),
)


@settings(max_examples=80, deadline=None)
@given(lattice_theta, st.sampled_from([1, 2, 3]))
def test_lattice_euler_multiply_matches_generic_product(theta, step):
    """The exact kernel against theta times the partition series in q^step
    (step 2 is the crossed channel's prod(1 - qtilde^{2r})^{-1}).  At step 1
    a term (e + 1, -c) next to (e, c) cancels slot e + 1, since p(1) = p(0)."""
    span = theta.cutoff - theta.min_exponent
    expected = (theta if theta.is_zero
                else theta * euler_inverse(span / step).dilate(step))
    assert qseries._euler_kernel(theta, step) == expected


@st.composite
def kernel_slots(draw):
    """(slots, D, C, cutoff, step) for the exact kernel, slots in any order:
    up to 12 of the D residues, coefficients of either sign or all negative
    and up to 2^200 in size, a cutoff anywhere inside a column, and repeats
    that cancel some terms or the whole theta."""
    step, D = draw(st.sampled_from([1, 2, 3])), draw(st.sampled_from([1, 3, 8, 24, 120, 720]))
    residues = draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=12, unique=True))
    size = draw(st.sampled_from([1, 40, 2**64, 2**200]))
    negative = st.integers(1, size).map(lambda a: -a)
    sizes = negative if draw(st.booleans()) else st.integers(-size, size)
    slots = [(draw(st.integers(-3, 12)) * D + draw(st.sampled_from(residues)), draw(sizes))
             for _ in range(draw(st.integers(0, 12)))]
    slots += [(n, -a) for n, a in slots[:draw(st.integers(0, len(slots)))]]
    cutoff = F(draw(st.integers(-14 * D, 98 * D)), D * draw(st.sampled_from([1, 7])))
    return draw(st.permutations(slots)), D, draw(st.sampled_from([1, 12])), cutoff, step


@st.composite
def residue_slots(draw):
    """(slots, D, C, cutoff, step) for the exact kernel: any D <= 60, one to
    five residues, slots below zero, coefficients +-1 or past 2^64, C > 1,
    steps 1 and 2 and a cutoff on (1/3D)Z, so residues may end a column apart."""
    D = draw(st.integers(1, 60))
    residues = draw(st.lists(st.integers(0, D - 1), min_size=1, max_size=5, unique=True))
    size = st.sampled_from([1, -1]) | st.integers(2**64, 2**70) | st.integers(-2**70, -2**64)
    slots = [(draw(st.integers(-4, 10)) * D + draw(st.sampled_from(residues)), draw(size))
             for _ in range(draw(st.integers(1, 10)))]
    cutoff = draw(st.fractions(min_value=-2, max_value=14, max_denominator=3 * D))
    return slots, D, draw(st.sampled_from([1, 2, 6])), cutoff, draw(st.sampled_from([1, 2]))


@settings(max_examples=300, deadline=None)
@given(kernel_slots() | residue_slots())
@example(([(0, 127)], 1, 1, F(2), 1))          # sum |a| p(K) = 2^7 - 1: one word
@example(([(0, -128)], 1, 1, F(2), 1))         # 2^7: one word
@example(([(0, 4681)], 1, 1, F(6), 1))         # 4681 p(5) = 2^15 - 1 at slot 5: one word
@example(([(0, -16384)], 1, 1, F(3), 1))       # -16384 p(2) = -2^15 at slot 2: one word
@example(([(0, 1 - 2**199)], 1, 1, F(2), 1))   # 2^199 - 1: four words
@example(([(0, 2**199)], 1, 1, F(2), 1))       # 2^199: four words
@example(([(0, 2**63 - 1)], 1, 1, F(2), 1))    # 2^63 - 1: one word, its top bit used
@example(([(0, 1 - 2**63)], 1, 1, F(2), 1))    # -(2^63 - 1): one word, its top bit used
@example(([(0, 2**63)], 1, 1, F(2), 1))        # 2^63: two words
@example(([(0, 2**127 - 1)], 1, 1, F(2), 1))   # 2^127 - 1: two words
@example(([(0, 1 - 2**127)], 1, 1, F(2), 1))   # -(2^127 - 1): two words
# +-1 terms only, added and subtracted with no multiply, in two residues: 4 p(K) at
# K = 799 (step 1) and 399 (step 2) lies in [2^63, 2^127), so fields of two words
@example(([(0, 1), (1, -1), (2, -1), (5, 1)], 2, 1, F(800), 1))
@example(([(0, 1), (1, -1), (2, -1), (5, 1)], 2, 1, F(800), 2))
@example(([(2, 5), (0, 3), (2, -5), (0, -3)], 1, 1, F(9), 2))  # theta cancels to zero
@example(([], 5, 1, F(7, 2), 1))                                    # empty theta
@example(([(3, -1)], 5, 1, F(4), 1))                                # one slot
@example(([(-7, 2**65), (3, 1)], 4, 3, F(21, 8), 2))  # slot 11 of residue 3 is at top = 11
@example(([(1, 1), (2, -1), (4, 1), (13, 2**64 + 1)], 6, 2, F(9), 1))      # R = 3
@example(([(0, 1), (7, -1), (15, 1), (22, -1), (29, 1)], 10, 1, F(5), 2))  # R = 5
def test_packed_euler_kernel_matches_the_row_oracle(case):
    """The packed kernel, one integer per residue, against one multiply-add
    per theta term and column (`series_oracle.euler_rows`): the same series,
    hash and terms."""
    slots, D, C, cutoff, step = case
    got = qseries._euler_kernel(qseries._slot_series(slots, D, C, cutoff), step)
    want = oracle.euler_rows(slots, D, C, cutoff, step)
    assert got == want and hash(got) == hash(want)
    assert repr(got.terms) == repr(want.terms)


@pytest.mark.parametrize("W", [1, 2, 3])
def test_fields_reads_each_field_in_twos_complement(W):
    """Fields v at the edges -(half - 1), -1, 0, 1 and half - 1, in every order,
    packed as bias + sum v_j 2^(64 W j) with half in every field of the bias and
    XORed with it: `_fields` returns each v, high field first."""
    half = 1 << 64 * W - 1
    edges = [-(half - 1), -1, 0, 1, half - 1]
    bias = sum(half << 64 * W * j for j in range(len(edges)))
    for vs in itertools.permutations(edges):
        acc = bias + sum(v << 64 * W * j for j, v in enumerate(vs))
        assert list(qseries._fields(acc ^ bias, W, len(vs))) == list(vs[::-1])


# -- the cached packed partition table ------------------------------------------


@pytest.mark.parametrize("step", [1, 2])
def test_kernel_output_does_not_depend_on_the_cached_tables(monkeypatch, step):
    """From an empty cache, orders 1024, 64, 64 and 1024 with fields of W = 2,
    1, 2 and 2 words: the second order-64 call is served by the order-1024
    table by a longer shift, and every call matches `series_oracle.euler_rows`.
    Tables are keyed by width alone: a step-2 call completes theta(q^{1/2}) at
    step 1, half the columns of its cutoff."""
    monkeypatch.setattr(qseries, "_TABLES", {})
    for order, size, W in [(1024, 1, 2), (64, 1, 1), (64, 2**70, 2), (1024, 1, 2)]:
        slots, D, C, cutoff = [(0, size), (4, -1), (8, 3 * size)], 3, 1, F(order)
        got = qseries._euler_kernel(qseries._slot_series(slots, D, C, cutoff), step)
        assert got == oracle.euler_rows(slots, D, C, cutoff, step), (order, size)
        assert W in qseries._TABLES
    long, short = (3 * 1024 - 1) // (3 * step) + 1, (3 * 64 - 1) // (3 * step) + 1
    assert qseries._TABLES[2][0] == long and qseries._TABLES[1][0] == short
    assert sorted(qseries._TABLES) == [1, 2]


def test_a_published_table_is_never_changed(monkeypatch):
    """A call within the cached length reuses the published (L, table) pair,
    whatever its step; a longer one publishes a new pair, and the old one keeps
    its layout: p(k) at bit 64 W (L - k), one per field."""
    monkeypatch.setattr(qseries, "_TABLES", {})

    def layout(L, W):
        return sum(p << 64 * W * (L - k)
                   for k, p in enumerate(qseries._partition_numbers(L - 1)))

    theta = S([(0, 1)], 64)
    qseries._euler_kernel(theta, 2)
    published = qseries._TABLES[1]
    qseries._euler_kernel(theta.truncate(20), 2)
    qseries._euler_kernel(theta.truncate(32))  # step 1, served by the step-2 table
    assert qseries._TABLES[1] is published
    qseries._euler_kernel(S([(0, 1)], 300), 2)
    assert qseries._TABLES[1][0] == 150 > published[0] == 32
    assert published[1] == layout(32, 1)
    assert qseries._TABLES[1][1] == layout(150, 1)


# -- the integer enumerator ---------------------------------------------------------


def scan_support(f, cutoff, vertex, a):
    """(k, f(k)) for every k with f(k) < cutoff in a window round `vertex` wide
    enough for any convex quadratic f with leading coefficient a."""
    reach = math.sqrt(max(cutoff - f(round(vertex)), 0) / a) + 3
    return [(k, e) for k in range(math.floor(vertex - reach), math.ceil(vertex + reach) + 1)
            if (e := f(k)) < cutoff]


def _registry_examples():
    """(a, b, c, top) of h(p) - c/24 at every registry coupling, at cutoffs on
    (1/den)Z: on the p = 0 and p = 3 slots, one step above p = -5's and at 64."""
    from loopgas import annulus, params_from_n

    cases = []
    for n in [2.0, math.sqrt(3), math.sqrt(2), 1.0, 0.0, -1.0, -math.sqrt(2), -math.sqrt(3)]:
        for phase in ("dilute", "dense"):
            (a, b, c, _), den = annulus._exponent(params_from_n(n, phase), True)
            x = lambda p: (a * p + b) * p + c  # noqa: E731
            cases += [(a, b, c, top) for top in (x(0), x(3), x(-5) + 1, 64 * den)]
    return cases


def _with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(*case)(test)
        return test
    return decorate


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 60), st.integers(-300, 300), st.integers(-500, 500),
       st.integers(-500, 3000))
@example(1, 0, 5, 5)      # discriminant 0: k^2 < 0 has no solution
@example(2, 1, 3, 2)      # negative discriminant
@example(1, -1, 0, 0)     # discriminant 1: roots 0 and 1, both on integers
@example(1, 0, -9, 0)     # roots -3 and 3, on integers
@example(6, -5, 1, 0)     # roots 1/3 and 1/2: no integer between
@example(3, -1, 0, 14)    # cutoff on the pentagonal slot k = -2 (3k^2 - k = 14)
@_with_examples(_registry_examples())
def test_integer_support_is_the_brute_force_scan(a, b, c, top):
    got = qseries._integer_support(a, b, c, top)
    assert isinstance(got, list) and all(type(e) is int for _, e in got)
    f, vertex = (lambda k: (a * k + b) * k + c), F(-b, 2 * a)
    want = scan_support(f, top, vertex, a)
    assert got == want == oracle.quadratic_support(f, top, vertex)


class TestLatticeEulerMultiply:
    def test_pentagonal_theta_collapses_to_one_term(self):
        theta = pentagonal_series(F(101, 3)).shift(F(-5, 24))
        assert qseries._euler_kernel(theta) == S([(F(-5, 24), 1)], F(101, 3) - F(5, 24))

    def test_exact_backend_bypasses_the_generic_multiply(self, monkeypatch):
        """Neither backend's kernel calls the Cauchy product or builds the
        partition series: both read the shared partition table."""
        def generic(*args, **kwargs):
            raise RuntimeError("generic multiply")

        theta = S([(F(-1, 24), 1), (F(2, 3), F(-3, 2)), (F(7, 8), 4)], F(41, 3))
        expected = theta * euler_inverse(theta.cutoff - theta.min_exponent)
        pairs = [(-1 / 24, 1.0), (2 / 3, -1.5), (7 / 8, 4.0)]
        float_theta = S(pairs, 41 / 3, Backend.FLOAT)
        float_expected = float_theta * euler_inverse(
            float_theta.cutoff - float_theta.min_exponent, Backend.FLOAT)
        monkeypatch.setattr(GenSeries, "__mul__", generic)
        monkeypatch.setattr(qseries, "euler_inverse", generic)
        assert qseries._euler_kernel(theta) == expected
        assert qseries._euler_kernel(float_theta) == float_expected

    @pytest.mark.parametrize("backend", list(Backend))
    def test_no_builder_multiplies_two_series(self, monkeypatch, backend):
        """Series times series is public API only: every builder ends in the
        Euler kernel, and what multiplies a series by a scalar still may."""
        from loopgas import annulus, characters, observables, params_from_n

        scalar = GenSeries.__mul__

        def scalar_only(a, b):
            if isinstance(b, GenSeries):
                raise AssertionError("series times series inside a builder")
            return scalar(a, b)

        monkeypatch.setattr(GenSeries, "__mul__", scalar_only)
        monkeypatch.setattr(GenSeries, "__rmul__", scalar_only)
        ising = params_from_n(1.0, "dilute")
        basis = [characters.CharacterSpec(3, 4, 1, 1), characters.CharacterSpec(3, 4, 1, 3)]
        characters.decompose(annulus.partition_direct(ising, None, 40, backend), basis)
        annulus.partition_direct_parity(ising, None, 40, "odd", backend)
        annulus.flux_sum(ising, None, 40, None, backend)
        for build in (observables.crossing_probability, observables.saw_loop_dilute,
                      observables.saw_loop_dense):
            build(40, backend)
        observables.log_partition_exact_core("dense", 40, backend)
        if backend is Backend.FLOAT:
            generic = params_from_n(0.7, "dense")
            annulus.partition_direct(generic, None, 40, backend)
            annulus.partition_naive(generic, None, 40)
            annulus.partition_crossed(generic, None, 40)
            annulus.duality_check(generic, None, 1.0, 40)


# -- the work cap: refused before any of the work starts ----------------------------


def over_cap_calls():
    """One call per public builder that completes a series, each asking for more
    than `_WORK_CAP` steps: generic floats at order 16384, the rest at 200000."""
    from loopgas import (CharacterSpec, annulus, crossing_probability, decompose,
                         log_partition, log_partition_exact_core, params_from_n,
                         rocha_caridi, saw_loop_dense, saw_loop_derivative_series,
                         saw_loop_dilute, wrap_count_generating)

    generic, perc = params_from_n(1.3, "dense"), params_from_n(1.0, "dense")
    ising, big = params_from_n(1.0, "dilute"), 200_000
    basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
    return {
        "partition_direct float": lambda: annulus.partition_direct(
            generic, None, 16384, Backend.FLOAT),
        "partition_direct exact": lambda: annulus.partition_direct(perc, None, big),
        "partition_direct registry float": lambda: annulus.partition_direct(
            perc, None, big, Backend.FLOAT),
        "partition_direct_parity": lambda: annulus.partition_direct_parity(
            ising, None, big, "even"),
        "partition_naive": lambda: annulus.partition_naive(generic, None, 16384),
        "partition_crossed": lambda: annulus.partition_crossed(generic, None, 16384),
        "duality_check float": lambda: annulus.duality_check(generic, None, 1.0, 16384),
        "duality_check exact": lambda: annulus.duality_check(perc, None, 1.0, big),
        "rocha_caridi": lambda: rocha_caridi(basis[0], big),
        "decompose": lambda: decompose(GenSeries.from_terms([(F(-1, 48), 1)], big), basis),
        "crossing_probability": lambda: crossing_probability(big),
        "wrap_count_generating": lambda: wrap_count_generating(perc, 0.5, big),
        "saw_loop_derivative_series": lambda: saw_loop_derivative_series("dense", big),
        "saw_loop_dilute": lambda: saw_loop_dilute(big, Backend.FLOAT),
        "saw_loop_dense": lambda: saw_loop_dense(big),
        "log_partition": lambda: log_partition("dense", big),
        "log_partition_exact_core": lambda: log_partition_exact_core("dilute", big),
        "euler_inverse exact": lambda: euler_inverse(big),
        "euler_inverse float": lambda: euler_inverse(big, Backend.FLOAT),
        "eta_modular_check": lambda: eta_modular_check(1.0, big),
    }


@pytest.fixture
def no_work(monkeypatch):
    """The Euler kernel and the partition numbers refuse to run."""
    from loopgas import characters

    def refuse(*args):
        raise AssertionError("the work started before the cap refused it")

    monkeypatch.setattr(qseries, "_euler_kernel", refuse)
    monkeypatch.setattr(qseries, "_partition_numbers", refuse)
    monkeypatch.setattr(characters, "_partition_numbers", refuse)


@pytest.mark.parametrize("name", list(over_cap_calls()))
def test_over_cap_builders_refuse_before_any_work(no_work, name):
    with pytest.raises(DomainError, match="the cutoff asks for more than 1048576 steps of work"):
        over_cap_calls()[name]()


@pytest.mark.parametrize("argv", [
    "partition --n 1.3 --phase dense --order 16384",
    "partition --n 1 --phase dense --order 200000",
    "crossed --n 1.3 --phase dense --order 16384",
    "duality --n 1.3 --phase dense --ratio 1 --order 16384",
    "crossing --q 0.5 --order 200000",
    "sweep --target saw --phase dense --values 0.1,0.2 --order 200000",
])
def test_over_cap_commands_exit_3_before_any_work(no_work, capsys, argv):
    from loopgas.cli import main

    assert main(argv.split()) == 3
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("domain error: the cutoff asks for more than")


def test_the_channel_evaluator_is_capped_as_its_set_up(monkeypatch):
    # a full completion of n = 1.3 dense at order 4096 is past the cap, but the
    # evaluator builds only the columns its sums read, and is not refused
    from loopgas import annulus, params_from_n

    params = params_from_n(1.3, "dense")
    theta = annulus.flux_sum(params, None, 4096, None, Backend.FLOAT)
    with pytest.raises(DomainError, match="steps of work"):
        qseries._check_work(*qseries._extent(theta))

    def refuse(*args):
        raise AssertionError("the evaluator built a channel in full")

    monkeypatch.setattr(qseries, "_euler_kernel", refuse)
    assert annulus.duality_check(params, None, 1.0, 4096).residual < 1e-8


def test_the_largest_property_test_input_is_under_the_cap():
    # the hypothesis properties draw flux sums at |n| <= 1.99 below cutoff 1024;
    # the costliest, the null-pair form at n = -1.99 dense, is ~0.73 of the cap
    from loopgas import annulus, params_from_n

    theta = annulus.flux_sum(params_from_n(-1.99, "dense"), None, 1024, None,
                             Backend.FLOAT, "null_pairs")
    terms, columns = len(theta), math.ceil(1024 - theta.min_exponent)
    assert 0.7 * qseries._WORK_CAP < terms * columns + columns ** 1.5 <= qseries._WORK_CAP
    qseries._check_work(*qseries._extent(theta))


# -- an exact series is its lattice --------------------------------------------


@st.composite
def lattice_slots(draw):
    """(slots, D, C, cutoff) for the sum of a/C q^{n/D}: n negative or positive,
    a zero, small or huge, and half the time a factor that D shares with every
    n, or C with every a, so that the lattice reduces by a gcd."""
    gD, gC = draw(st.sampled_from([1, 2, 6])), draw(st.sampled_from([1, 3, 10]))
    D0 = draw(st.sampled_from([1, 2, 3, 8, 24, 120]))
    cutoff = draw(st.fractions(min_value=-2, max_value=20, max_denominator=30))
    ns = draw(st.lists(st.integers(-4 * D0, 20 * D0), unique=True, max_size=12))
    a = st.one_of(st.just(0), st.integers(-40, 40), st.integers(-10**40, 10**40))
    slots = [(n * gD, draw(a) * gC) for n in sorted(ns) if F(n, D0) < cutoff]
    return slots, D0 * gD, draw(st.sampled_from([1, 2, 7, 12])) * gC, cutoff


def term_view(series):
    """What the dataclass with a stored term tuple printed and evaluated, from
    `terms` alone: repr, JSON terms, CSV rows and eval_at at three q."""
    exact = series.backend is Backend.EXACT
    enc, fmt = (str, str) if exact else (float, lambda x: format(x, ".17g"))
    shown = " + ".join(f"({c})*q^({e})" for e, c in series.terms[:6])
    shown += " + ..." * (len(series.terms) > 6)
    evals = []
    for q in (0.05, 0.5, 0.93):
        lnq, value = math.log(q), 0.0
        for e, c in series.terms:
            value += float(c) * math.exp(float(e) * lnq)
        last = abs(float(series.terms[-1].coefficient)) if series.terms else 1.0
        tail = 4.0 * last * math.exp(float(series.cutoff) * lnq) / (1.0 - q)
        evals += [value.hex(), tail.hex()]
    return (f"<GenSeries[{series.backend.value}] {shown or '0'} ; cutoff={series.cutoff}>",
            [{"exponent": enc(e), "coefficient": enc(c)} for e, c in series.terms],
            [(fmt(e), fmt(c)) for e, c in series.terms], evals)


def printed(series):
    """What `term_view` works out from `terms`, read from the series itself."""
    return (repr(series), series.to_json_dict()["terms"], series.to_csv_rows(),
            [x for q in (0.05, 0.5, 0.93) for x in map(float.hex, series.eval_at(q))])


@settings(max_examples=120, deadline=None)
@given(lattice_slots(), st.fractions(min_value=0, max_value=5, max_denominator=24),
       st.fractions(min_value=-3, max_value=3, max_denominator=40),
       st.fractions(min_value=F(1, 7), max_value=5, max_denominator=9),
       st.fractions(min_value=-5, max_value=5, max_denominator=12))
def test_slot_series_is_the_series_of_its_terms(case, drop, delta, factor, k):
    """A series built on integer slots and one built by `from_terms` from the
    same Fractions agree in every view, and so does every operation that
    reads the slots; the printed forms match the formulas on `terms`."""
    slots, D, C, cutoff = case
    pairs = [(F(n, D), F(a, C)) for n, a in slots]
    s, t = qseries._slot_series(slots, D, C, cutoff), S(pairs, cutoff)
    assert s == t and hash(s) == hash(t) and len(s) == len(t)
    assert repr(s.terms) == repr(t.terms) and repr(s) == repr(t)
    assert s.min_exponent == t.min_exponent
    assert printed(s) == term_view(t)
    assert s.to_json_dict() == t.to_json_dict()
    assert s.to_csv_rows() == t.to_csv_rows()
    terms = s.terms
    for got, want in [
        (s.truncate(cutoff - drop), S(terms, cutoff - drop)),
        (s.shift(delta), S([(e + delta, c) for e, c in terms], cutoff + delta)),
        (s.dilate(factor), S([(e * factor, c) for e, c in terms], cutoff * factor)),
        (-s, S([(e, -c) for e, c in terms], cutoff)),
        (s * k, S([(e, c * k) for e, c in terms], cutoff)),
        (s + t, S(terms + terms, cutoff)),
    ]:
        assert got == want and repr(got.terms) == repr(want.terms)
        assert got.to_json_dict() == want.to_json_dict()


@st.composite
def messy_slots(draw):
    """(slots, D, C, cutoff) in any order: repeats, pairs that cancel, zero
    coefficients and slots at or above the cutoff, and half the time a factor
    that D shares with every n, or C with every a, so the lattice reduces."""
    gD, gC = draw(st.sampled_from([1, 2, 6])), draw(st.sampled_from([1, 3, 10]))
    D0 = draw(st.sampled_from([1, 2, 3, 8, 24, 120]))
    cutoff = draw(st.fractions(min_value=-2, max_value=20, max_denominator=30))
    a = st.one_of(st.just(0), st.integers(-40, 40), st.integers(-10**40, 10**40))
    slots = [(draw(st.integers(-4 * D0, 24 * D0)) * gD, draw(a) * gC)
             for _ in range(draw(st.integers(0, 12)))]
    slots += draw(st.lists(st.sampled_from(slots), max_size=4)) if slots else []
    slots += [(n, -x) for n, x in slots[:draw(st.integers(0, len(slots)))]]
    C = draw(st.sampled_from([1, 2, 7, 12])) * gC
    return draw(st.permutations(slots)), D0 * gD, C, cutoff


@settings(max_examples=150, deadline=None)
@given(messy_slots())
@example(([(9, 4), (3, 2), (9, 6), (6, 0), (30, 2), (3, -2)], 6, 4, F(4)))  # D, C reduce to 2, 2
def test_one_exact_normaliser_matches_the_dict_oracle(case):
    """`_slot_series`, exact `from_terms` and the constructor on shuffled
    slots against the Fraction-dict merge of `series_oracle.normalised`."""
    slots, D, C, cutoff = case
    pairs = [(F(n, D), F(a, C)) for n, a in slots]
    want = oracle.normalised(pairs, cutoff)
    s = qseries._slot_series(slots, D, C, cutoff)
    for got in (s, S(pairs, cutoff), GenSeries(pairs, cutoff, Backend.EXACT),
                pickle.loads(pickle.dumps(s))):
        assert got == want and hash(got) == hash(want)
        assert repr(got.terms) == repr(want.terms)
        assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("backend", list(Backend))
@pytest.mark.parametrize("terms", [[(2, 1), (1, 1)], [(1, 1), (0, 3), (1, 2)],
                                   [(0, 1), (1, 0)], [(0, 1), (4, 1), (5, 2)],
                                   [(1, 1), (1, -1)]],
                         ids=["unsorted", "repeated", "zero", "above cutoff", "cancelling"])
def test_constructor_is_from_terms(terms, backend):
    """The public constructor normalises its terms as `from_terms` does, so
    lookups, truncation and pickling see one series."""
    s, t = GenSeries(terms, 4, backend), S(terms, 4, backend)
    assert s == t and hash(s) == hash(t) and repr(s.terms) == repr(t.terms)
    assert pickle.loads(pickle.dumps(s)) == t
    assert s.coefficient(1) == sum(c for e, c in terms if e == 1)
    assert s.truncate(2) == S([x for x in terms if x[0] < 2], 2, backend)


@settings(max_examples=100, deadline=None)
@given(lattice_slots(), lattice_slots(), st.booleans())
def test_exact_add_on_slots_is_the_sum_of_its_terms(x, y, cancel):
    """Exact + on the common lattice against `from_terms` of both term lists:
    different D, C and cutoffs, and with `cancel` every term of s taken out."""
    s, t = qseries._slot_series(*x), qseries._slot_series(*y)
    if cancel:
        t = S([*((e, -c) for e, c in s.terms), *t.terms], t.cutoff)
    got, want = s + t, S([*s.terms, *t.terms], min(s.cutoff, t.cutoff))
    assert got == want and hash(got) == hash(want)
    assert repr(got.terms) == repr(want.terms)
    assert got.to_json_dict() == want.to_json_dict()


# -- the product of two series on its tuples -----------------------------------


@st.composite
def product_operands(draw):
    """Two series of one backend: exact ones on integer slots, each with its own
    D, C and cutoff, negative exponents and huge coefficients among them, or
    floating ones whose pairs collide exactly or within the merge tolerance;
    now and then one of the two is its zero series."""
    if draw(st.booleans()):
        a, b = (qseries._slot_series(*draw(lattice_slots())) for _ in "ab")
    else:
        a, b = (S(*draw(float_pairs()), Backend.FLOAT) for _ in "ab")
    zero = draw(st.integers(0, 5))
    a = GenSeries.zero(a.cutoff, a.backend) if zero == 0 else a
    b = GenSeries.zero(b.cutoff, b.backend) if zero == 1 else b
    return a, b


def product_outcome(mul, a, b):
    """The product's terms and cutoff by repr, or its DomainError's message."""
    try:
        p = mul(a, b)
    except DomainError as exc:
        return str(exc)
    return repr(p.terms), repr(p.cutoff), p.backend


@settings(max_examples=300, deadline=None)
@given(product_operands())
@example((S([(F(-1, 24), F(1, 3)), (F(5, 8), -2)], 7), S([(F(-2, 3), F(3, 4))], F(9, 2))))
@example((S([(0.0, 1e200)], 4.0, Backend.FLOAT), S([(1.0, 1e200)], 4.0, Backend.FLOAT)))
@example((S([(0.5, 1.0)], 4.0, Backend.FLOAT), S([(0.5 + 5e-10, 2.0), (0.5, 3.0)], 4.0,
                                                   Backend.FLOAT)))
# 2 + 2e-10 lies past the product's cutoff 2, within the merge tolerance of 2 - 5e-10
@example((S([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)], 2.0, Backend.FLOAT),
          S([(0.0, 1.0), (1.0 - 5e-10, 1.0), (1.5 + 2e-10, 1.0)], 2.0, Backend.FLOAT)))
def test_product_on_the_tuples_is_the_frozen_cauchy_product(operands):
    """Series times series reads the integer slots or float tuples, and gives
    the product of `series_oracle.cauchy_product` over `terms`: the same terms
    and cutoff by repr, or the same DomainError, a product past the doubles
    included."""
    a, b = operands
    for x, y in ((a, b), (b, a)):
        assert product_outcome(GenSeries.__mul__, x, y) == product_outcome(
            oracle.cauchy_product, x, y)


@settings(max_examples=200, deadline=None)
@given(product_operands())
@example((S([(0.0, 1.0), (0.5, 1.0), (1.0, 1.0)], 2.0, Backend.FLOAT),
          S([(0.0, 1.0), (1.0 - 5e-10, 1.0), (1.5 + 2e-10, 1.0)], 2.0, Backend.FLOAT)))
def test_product_hands_the_work_cap_the_pairs_it_lists(operands):
    """The product counts its pairs by two pointers before it lists one: the
    count is the number of pairs whose exponent sum the first form kept below
    the cutoff, by the same float `<` or exactly."""
    a, b = operands
    for x, y in ((a, b), (b, a)):
        cutoff = min(x.cutoff + y.min_exponent, y.cutoff + x.min_exponent)
        listed = sum(ea + eb < cutoff for ea, _ in x.terms for eb, _ in y.terms)
        counts = []
        check = qseries._check_work
        qseries._check_work = lambda terms, *rest: counts.append(terms)
        try:
            product_outcome(GenSeries.__mul__, x, y)
        finally:
            qseries._check_work = check
        assert counts == [listed]


@pytest.mark.parametrize("build", [
    lambda: euler_inverse(1024, Backend.FLOAT),
    lambda: euler_inverse(1024),
    lambda: loopgas.partition_direct(loopgas.params_from_n(1.3, "dense"), None, 256,
                                     Backend.FLOAT),
], ids=["euler_inverse float", "euler_inverse exact", "partition n=1.3 dense float"])
def test_a_product_past_the_work_cap_is_refused_before_one_pair(monkeypatch, build):
    """A square of 524 800 (or, for the 6 657-term partition, 13 444 192) pairs
    below its cutoff is refused through `_WORK_CAP`, with no pair listed: each
    took 0.2-0.5 s (and the partition's 23 s and 2.5 GB) before the cap."""
    a = build()

    def refuse(*args):
        raise AssertionError("the product listed its pairs before the cap refused them")

    monkeypatch.setattr(GenSeries, "from_terms", staticmethod(refuse))
    monkeypatch.setattr(qseries, "_slot_series", refuse)
    with pytest.raises(DomainError, match="the cutoff asks for more than 1048576 steps of work"):
        a * a


# -- the floating Euler multiply against the Cauchy product ---------------------

# Dyadic exponents and coefficients make rows collide exactly (e + k is exact);
# a nudge below FLOAT_EXPONENT_TOL makes them collide within the tolerance.
dyadic = st.integers(-16, 64).map(lambda n: n / 8)
float_coefficients = st.one_of(st.integers(-8, 8).map(lambda n: n / 4),
                               st.floats(-5, 5, allow_subnormal=False))
nudges = st.sampled_from([0.0, 1e-12, 3e-10, 6e-10, 9.9e-10, 1.2e-9])


@st.composite
def float_theta(draw):
    """(theta pairs, cutoff, step).  The optional triple (e, a), (e + step,
    -2a), (e + 2 step + nudge, b) puts a zero-sum key at e + 2 step, since
    p(2) = 2 p(1): with a nudge, that key still anchors b's group."""
    step = draw(st.sampled_from([1, 2, 3]))
    pairs = draw(st.lists(
        st.tuples(st.one_of(dyadic, st.floats(-2, 8)), float_coefficients),
        max_size=6))
    if draw(st.booleans()):
        e, a = draw(dyadic), draw(st.integers(1, 8).map(lambda n: n / 4))
        pairs += [(e, a), (e + step, -2 * a),
                  (e + 2 * step + draw(nudges), draw(float_coefficients))]
    return pairs, draw(st.one_of(dyadic, st.floats(0.25, 24))), step


def merged_by_dict(pairs, cutoff):
    """The floating normalisation written independently of `_float_terms`: a
    dict sums repeats in insertion order, then a list merges each exponent
    within FLOAT_EXPONENT_TOL of its group's first one, then zero sums and
    exponents at or above the cutoff go."""
    acc = {}
    for e, c in pairs:
        acc[float(e)] = acc.get(float(e), 0.0) + float(c)
    merged = []
    for e, c in sorted(acc.items()):
        if merged and e - merged[-1][0] < qseries.FLOAT_EXPONENT_TOL:
            merged[-1][1] += c
        else:
            merged.append([e, c])
    return tuple((e, c) for e, c in merged if c != 0 and e < cutoff)


@st.composite
def float_pairs(draw):
    """Unsorted pairs on a few exponents, each repeated exactly or nudged
    within the tolerance, and optionally a key summing to zero (e, a) ...
    (e, -a) with a nudged neighbour that it anchors."""
    base = draw(st.lists(st.one_of(dyadic, st.floats(-2, 8)), min_size=1, max_size=4))
    pairs = [(draw(st.sampled_from(base)) + draw(nudges), draw(float_coefficients))
             for _ in range(draw(st.integers(0, 12)))]
    if draw(st.booleans()):
        e, a = draw(dyadic), draw(float_coefficients)
        pairs += [(e, a), (e + draw(nudges), draw(float_coefficients)), (e, -a)]
    return draw(st.permutations(pairs)), draw(st.floats(-1, 10))


@settings(max_examples=150, deadline=None)
@given(float_pairs())
@example(([(1.0, 2.0), (1.0 + 5e-10, 3.0), (1.0, -2.0)], 4.0))   # zero-sum lead
@example(([(1.0, 0.1), (1.0 + 9e-10, 0.2), (1.0, 0.7)], 4.0))     # sum per key first
@example(([(1.0, 1.0), (1.0 + 6e-10, 1.0), (1.0 + 1.2e-9, 1.0)], 4.0))  # first key anchors
@example(([(2.0, -1e16), (2.0, 1.0), (2.0, 0.5)], 4.0))             # summed in order
def test_float_from_terms_merge_rule(case):
    pairs, cutoff = case
    got = S(pairs, cutoff, Backend.FLOAT)
    want = merged_by_dict(pairs, cutoff)
    assert [repr(tuple(t)) for t in got.terms] == [repr(t) for t in want]


def float_merge_outcome(merge, pairs, cutoff):
    """repr of the merged series' (n, a, cutoff), or the DomainError's text."""
    try:
        got = merge(pairs, cutoff)
    except DomainError as exc:
        return f"DomainError: {exc}"
    return repr((got._n, got._a, got.cutoff))


@st.composite
def float_pairs_at_the_edges(draw):
    """`float_pairs`, with a pair at the cutoff and, at times, coefficients of
    1e16 whose sum with a small one depends on its order, or near the largest
    double, which make a merged sum overflow, in any order."""
    pairs, cutoff = draw(float_pairs())
    if draw(st.booleans()):
        pairs.append((cutoff, draw(float_coefficients)))
    for big in ([1e16, -1e16], [1.7e308] * draw(st.integers(1, 2))):
        if pairs and draw(st.booleans()):
            e, _ = draw(st.sampled_from(pairs))
            pairs += [(e, draw(st.sampled_from([x, -x]))) for x in big]
    return draw(st.permutations(pairs)), cutoff


@settings(max_examples=300, deadline=None)
@given(float_pairs_at_the_edges())
@example(([(2.0, 1.0), (1.0, 0.5), (2.0, -1.0), (1.0 + 5e-10, 0.25), (0.5, 0.0)], 2.0))
@example(([(1.0, 1e16), (1.0, -1e16), (1.0, 1.0)], 4.0))            # summed in order given
@example(([(1.0, 1.7e308), (0.5, 1.0), (1.0, 1.7e308)], 4.0))       # a sum overflows
@example(([(1.0 + 9e-10, 2.0), (1.0, -1.0), (1.0, 1.0)], 4.0))      # a zero sum anchors
@example(([(3.0, 1.0), (3.0 + 6e-10, 1.0), (-1.0, 2.0)], 3.0))     # a group at the cutoff
def test_float_terms_takes_pairs_in_any_order(case):
    """`_float_terms` sorts its own pairs, once, stably by exponent: on pairs in
    any order it gives what it gave when its callers sorted them first, the
    frozen `float_merged`, by repr, or the same DomainError."""
    pairs, cutoff = case
    assert (float_merge_outcome(qseries._float_terms, pairs, cutoff)
            == float_merge_outcome(oracle.float_merged, pairs, cutoff))


# -- pairs that `from_terms` changes, and the class pass's edge cases --------------

# (name, step, pairs): raw pairs below a cutoff of 64 that `from_terms` would
# not return as they are, only sorted, or that leave no class path at that step.
# Builders hand the kernel a series, so such pairs reach it only as what
# `from_terms` makes of them.
RAW_FALLBACKS = [
    *[(name, step, pairs) for step in (1, 2) for name, pairs in [
        ("repeated exponent, d = 0", [(0.1, 1.0), (0.35, 2.5), (0.1, -0.25)]),
        ("zero weight", [(0.1, 1.0), (1.1, -1.0), (0.35, 0.0)]),
        ("two terms 1.5 tol apart in phase, one column", [(0.1, 1.0), (0.1 + 1.5e-9, 2.0)]),
        ("a partner at the cutoff", [(0.1, 1.0), (64.0, -1.0)]),
        ("NaN exponent", [(0.1, 1.0), (math.nan, 1.0)]),
        ("-inf exponent", [(0.1, 1.0), (-math.inf, 1.0)]),
        ("inf coefficient", [(0.1, 1.0), (1.1, -math.inf)])]],
    *[(name, step, pairs) for step in (1, 2) for name, pairs in [
        ("a pair 1.5 tol from null partners", [(0.1, 1.0), (0.1 + step + 1.5e-9, -1.0),
                                               (0.6, 0.5)]),
        ("phases wrapping round 0", [(step - 5e-10, 1.0), (2 * step + 5e-10, -1.0), (0.5, 0.5)]),
        ("a class of three", [(0.1, 1.0), (0.1 + step, -1.0), (0.1 + 2 * step, 0.5)])]],
]



@pytest.mark.parametrize("step,pairs", [case[1:] for case in RAW_FALLBACKS],
                         ids=[f"{name}, step {step}" for name, step, _ in RAW_FALLBACKS])
def test_raw_pairs_that_from_terms_would_change_are_normalised(step, pairs):
    """`from_terms` merges each such list by the one merge rule, the dict
    oracle's terms by repr, and refuses a NaN or infinite value by name."""
    if not all(map(math.isfinite, itertools.chain.from_iterable(pairs))):
        with pytest.raises(DomainError, match="must be finite, got"):
            S(pairs, 64.0, Backend.FLOAT)
        return
    got = S(pairs, 64.0, Backend.FLOAT)
    assert [repr(tuple(t)) for t in got.terms] == [repr(t) for t in merged_by_dict(pairs, 64.0)]


def class_pass_edges(test):
    """`test` with an @example per finite RAW_FALLBACKS case, as the float
    series of its pairs at its step: among them a class of three, phases
    wrapping round 0, a pair 1.5 tol from null partners, two terms 1.5 tol
    apart in one column, and a partner at the cutoff, which `from_terms` drops."""
    for _, step, pairs in RAW_FALLBACKS:
        if all(map(math.isfinite, itertools.chain.from_iterable(pairs))):
            test = example((pairs, 64.0, step))(test)
    return test


@settings(max_examples=150, deadline=None)
@given(float_theta())
@class_pass_edges
@example(([(0.5, 1.0), (1.5, 2.0)], 9.0, 1))                    # exactly equal
@example(([(0.1, 1.0), (1.1 + 5e-10, 1.0)], 9.0, 1))             # within 1e-9
@example(([(0.25, 1.0), (1.25, -2.0), (2.25 + 1e-10, 3.0)], 9.0, 1))  # zero-sum lead
@example(([(-0.5, 0.75), (1.5, -1.5), (3.5 + 3e-10, -1.0)], 11.0, 2))
@example(([(0.0, 0.5), (1.0, 0.5), (2.0, -1e16)], 9.0, 1))     # rows summed in order
@example(([(-1.0, 1.0)], -0.0, 1))                             # cutoff + 0.0
@example(([(0.25, 1.0), (2.25 - 1e-10, 3.0), (0.5, 2.0)], 9.0, 1))  # the later partner leads
@example(([(0.25, 1.0), (3.25, -2.0)], 9.0, 1))                # partners exactly d apart
@example(([(0.5, 1.0), (1.5 - 1e-10, 2.0)], 5.5, 1))           # the later row outlasts
@example(([(0.5, 1.0), (1.5 + 2e-10, -1.0), (3.5 - 1e-10, 2.0), (0.75, 1.0)], 9.0, 1))  # three
@example(([(0.25, 1.0), (1.25 + 8e-10, 2.0)], 9.0, 1))        # a pair near tol: merged
@example(([(0.1, 1.0), (1.100000000999999, 2.0)], 60.0, 1))    # rounding splits it at k = 7
@example(([(0.9999999999, 1.0), (2.0000000001, 1.0)], 9.0, 1))  # phases wrap round 0
@example(([(0.5, 1.0), (3.5 - 1e-10, 2.0), (1.75, -1.0)], 20.0, 3))  # step 3
@example(([(70000.25, 1.0), (70001.25 - 1e-10, 2.0)], 70003.0, 1))  # above 2^16: merged
@example(([(0.5, 1.5e308), (1.5, 1.5e308)], 4.0, 1))           # a pair's sum overflows
@example(([(0.5, 1e308), (1.5, -5e307)], 2.0, 1))   # 2 max|a| p(K) overflows, no coefficient
@example(([(0.5, 1e308)], 4.0, 1))                  # a product overflows: 2 p(2) = 2e308
@example(([(0.5, 1.5e308), (1.5, 1.5e308)], 2.0, 1))  # every product finite, a pair sum not
@example(([(-60.0, 1.0), (-58.5, -1.0)], 4.0, 1))   # q^e overflows at q = 1e-6
def test_float_euler_kernel_is_the_cauchy_product_bit_for_bit(case):
    """The floating kernel's rows against theta times the partition series
    in q^step: the same terms and cutoff, down to the last bit, or the same
    DomainError where a sum is not finite.  The channel evaluator gives what
    eval_at of the kernel output gives, value, tail or DomainError."""
    pairs, cutoff, step = case
    theta = S(pairs, cutoff, Backend.FLOAT)
    span = theta.cutoff - theta.min_exponent
    try:
        expected = (theta if theta.is_zero else
                    theta * euler_inverse(span / step, Backend.FLOAT).dilate(step))
    except DomainError:
        for build in (qseries._euler_kernel, qseries._euler_evaluator):
            with pytest.raises(DomainError, match="not finite"):
                build(theta, step)
        return
    got = qseries._euler_kernel(theta, step)
    assert got.backend is Backend.FLOAT
    assert got.terms == expected.terms
    assert [repr(t) for t in got.terms] == [repr(t) for t in expected.terms]
    assert repr(got.cutoff) == repr(expected.cutoff)
    if not theta.is_zero:
        evaluate = qseries._euler_evaluator(theta, step)
        for q in (1e-6, 0.53, 0.99):
            outcomes = []
            for f in (evaluate, got.eval_at):
                try:
                    outcomes.append(repr(f(q)))
                except DomainError as e:
                    outcomes.append(str(e))
            assert outcomes[0] == outcomes[1], q


def float_pool_sample(per_kind=40):
    """A seeded sample of `perfbench/data/float_pool.json.gz`, read only: per
    kind, `per_kind` (kind, n, phase, order, ratio) at generic couplings."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "float_pool.json.gz"
    with gzip.open(path, "rt") as fh:
        pool = json.load(fh)
    rng = random.Random("float-kernel-oracle")
    return [(kind, e["n"], e["phase"], e["order"], e.get("ratio"))
            for kind in sorted(pool) for e in rng.sample(pool[kind], per_kind)]


REGISTRY_FLOAT_POINTS = [(1.0, "dense"), (0.0, "dilute"), (math.sqrt(2.0), "dilute"),
                         (math.sqrt(3.0), "dense"), (2 * math.cos(math.pi / 5), "dense")]


def replay_float_pool(entries):
    """Run each float pool entry (kind, n, phase, order, ratio) as the
    benchmark's float-generic jobs call it."""
    from loopgas import annulus, params_from_n

    for kind, n, phase, order, ratio in entries:
        p = params_from_n(n, phase)
        if kind == "duality_check":
            annulus.duality_check(p, None, ratio, order)
        elif kind == "partition_direct":
            annulus.partition_direct(p, None, order, Backend.FLOAT)
        else:
            getattr(annulus, kind)(p, None, order)


def recorded_kernel_calls(monkeypatch, entries, points=()):
    """Every (theta, step) the partition functions hand to the kernel for the
    float pool `entries` and the registry `points` (n, phase, order), theta a
    series.  A duality check hands its floating
    channels' theta to the channel evaluator, which completes only what its
    sum reads: those are recorded from that call site, and its fallback to
    the full kernel is not recorded again."""
    from loopgas import annulus, params_from_n

    seen = []
    kernel, evaluator = qseries._euler_kernel, qseries._euler_evaluator

    def recorded(theta, step=1):
        seen.append((theta, step))
        return kernel(theta, step)

    def recorded_evaluator(theta, step=1):
        seen.append((theta, step))
        with monkeypatch.context() as inner:
            inner.setattr(qseries, "_euler_kernel", kernel)
            return evaluator(theta, step)

    # every builder completes through `qseries._complete`, which looks the kernel up here
    monkeypatch.setattr(qseries, "_euler_kernel", recorded)
    monkeypatch.setattr(annulus, "_euler_evaluator", recorded_evaluator)
    replay_float_pool(entries)
    for n, phase, order in points:
        annulus.partition_direct(params_from_n(n, phase), None, order, Backend.FLOAT)
        annulus.partition_naive(params_from_n(n, phase), None, order)
    monkeypatch.undo()
    return seen


def test_float_euler_kernel_matches_the_row_oracle(monkeypatch):
    """Every floating theta the partition functions complete, on a sample of
    the float pool and at registry and rational-g points, against one row per
    theta term merged by one stable sort (`series_oracle.euler_float_rows`):
    every exponent, coefficient and the cutoff, bit for bit."""
    points = [(n, phase, order) for n, phase in REGISTRY_FLOAT_POINTS for order in (64, 256, 400)]
    seen = recorded_kernel_calls(monkeypatch, float_pool_sample(), points)
    assert len(seen) >= 4 * 40 + 30
    for theta, step in seen:
        got = qseries._euler_kernel(theta, step)
        want = oracle.euler_float_rows(theta, step)
        assert (repr(got._n), repr(got._a), repr(got.cutoff)) == (
            repr(want._n), repr(want._a), repr(want.cutoff))


def test_generic_float_kernel_never_merges_by_sort(monkeypatch):
    """At generic coupling every class is one term or a pair of null partners:
    on a sample of the float pool, no floating kernel call falls back to the
    stable sort and `_float_terms`, which costs about 1.6 times as much."""
    seen = recorded_kernel_calls(monkeypatch, float_pool_sample())
    assert len(seen) >= 4 * 40
    assert all(t.backend is Backend.FLOAT for t, _ in seen)
    merge, merges = qseries._float_terms, []

    def counted(pairs, cutoff):
        merges.append(cutoff)
        return merge(pairs, cutoff)

    monkeypatch.setattr(qseries, "_float_terms", counted)
    for theta, step in seen:
        qseries._euler_kernel(theta, step)
    assert merges == []


# -- the windowed floating fill and the channel evaluator -------------------------


@st.composite
def channel_thetas(draw):
    """(theta, step) of a floating channel at generic coupling: the direct
    flux sum (step 1) or the crossed theta (step 2), at n in (-2, 2) in either
    phase, with the default or a generic wrap weight n', below cutoffs 8-1024."""
    from loopgas import annulus, params_from_n, wrap_weight

    phase = draw(st.sampled_from(["dilute", "dense"]))
    n = draw(st.floats(-1.99, 1.99).filter(
        lambda x: params_from_n(x, phase).g_exact is None))
    params = params_from_n(n, phase)
    nprime = draw(st.one_of(st.none(), st.floats(-1.99, 1.99)))
    w = annulus.default_wrap(params) if nprime is None else wrap_weight(phase, nprime)
    cutoff = draw(st.one_of(st.integers(8, 64), st.integers(65, 1024)))
    if draw(st.booleans()):
        return annulus.flux_sum(params, w, cutoff, None, Backend.FLOAT), 1
    gap = annulus._crossed_gap(params, w.chi_prime) - params.c / 12.0
    assume(gap < cutoff)  # else the cutoff excludes the leading crossed term
    return annulus._crossed_terms(params, w, cutoff), 2


@settings(max_examples=60, deadline=None)
@given(channel_thetas(), st.lists(st.one_of(st.sampled_from([1e-6, 0.53, 0.9, 0.99]),
                                            st.floats(1e-6, 0.99)), min_size=1, max_size=4))
def test_channel_evaluator_is_eval_at_of_the_full_kernel(channel, qs):
    """One evaluator, at q in any order, gives what eval_at of the full
    kernel output gives: value, tail bound and the sign of zero, bit for bit,
    from the class path's windows (a coupling within rounding of a rational g
    has no class path, and is built in full)."""
    theta, step = channel
    assume(qseries._float_setup(theta, step)[2] is not None)
    full, evaluate = qseries._euler_kernel(theta, step), qseries._euler_evaluator(theta, step)
    for q in qs:
        assert repr(evaluate(q)) == repr(full.eval_at(q)), q


@st.composite
def builder_calls(draw):
    """A floating theta builder at generic n in (-2, 2), either phase, n'
    default, generic, 0 or +-2, below cutoffs 8-1024: the direct flux sum in
    both forms and every parity, the crossed theta, or the naive partition."""
    from loopgas import annulus, params_from_n, wrap_weight

    phase = draw(st.sampled_from(["dilute", "dense"]))
    n = draw(st.floats(-1.99, 1.99).filter(
        lambda x: params_from_n(x, phase).g_exact is None))
    params = params_from_n(n, phase)
    nprime = draw(st.one_of(st.none(), st.floats(-1.99, 1.99), st.sampled_from([0.0, 2.0, -2.0])))
    w = annulus.default_wrap(params) if nprime is None else wrap_weight(phase, nprime)
    cutoff = draw(st.one_of(st.integers(8, 64), st.integers(65, 1024)))
    kind = draw(st.sampled_from(["crossed", "naive", "integer", "null_pairs"]))
    if kind == "crossed":
        assume(annulus._crossed_gap(params, w.chi_prime) - params.c / 12.0 < cutoff)
        return lambda: annulus._crossed_terms(params, w, cutoff)
    if kind == "naive":
        return lambda: annulus.partition_naive(params, w, cutoff)
    parity = draw(st.sampled_from([None, "even", "odd"])) if kind == "integer" else None
    return lambda: annulus.flux_sum(params, w, cutoff, parity, Backend.FLOAT, kind)


@settings(max_examples=80, deadline=None)
@given(builder_calls())
def test_builder_theta_is_the_from_terms_series_of_its_pairs(build):
    """Each floating theta builder merges its pairs by `_float_terms` without
    `from_terms`' per-value gates: the series is `from_terms` of the same pairs,
    exponents, coefficients and cutoff by repr."""
    from loopgas import annulus

    merge, merged = annulus._float_terms, []

    def compared(pairs, cutoff):
        got, want = merge(pairs, cutoff), GenSeries.from_terms(pairs, cutoff, Backend.FLOAT)
        assert repr((got._n, got._a, got.cutoff)) == repr((want._n, want._a, want.cutoff))
        merged.append(got)
        return got

    annulus._float_terms = compared
    try:
        build()
    except IdentityError:  # n' = +-2 away from g = 1 has no power series
        assume(False)
    finally:
        annulus._float_terms = merge
    assert len(merged) == 1


@pytest.mark.parametrize("step", [1, 2])
def test_raw_pairs_that_cancel_complete_to_the_zero_series(step):
    """Raw pairs whose sums are all zero normalise to the zero series, which is its
    own completion: the kernel gives it, the evaluator its eval_at."""
    theta = S([(0.1, 1.0), (0.35, 2.5), (0.1, -1.0), (0.35, -2.5)], 64.0, Backend.FLOAT)
    zero = GenSeries.zero(64.0, Backend.FLOAT)
    got = qseries._euler_kernel(theta, step)
    assert got == zero and repr((got._n, got._a, got.cutoff)) == repr(((), (), 64.0))
    assert qseries._euler_evaluator(theta, step)(0.5) == zero.eval_at(0.5)


def test_a_row_that_ends_past_its_first_guess_runs_on():
    """A row's end starts from ceil((top - e)/step) and moves by compares.  At
    e = -9.999 and cutoff 0.001, top - e rounds down onto 10 columns, yet
    e + 10 rounds below the cutoff, so the row runs one column on: the row
    oracle's output bit for bit."""
    e, cutoff = -9.999, 0.001
    assert cutoff - e == 10.0 and e + 10.0 < cutoff
    theta = GenSeries.from_terms([(-17.0, 1.0), (e, 1.0)], cutoff, Backend.FLOAT)
    want = oracle.euler_float_rows(theta)
    assert e + 10.0 in want._n
    got = qseries._euler_kernel(theta)
    assert (repr(got._n), repr(got._a), got.cutoff) == (repr(want._n), repr(want._a), cutoff)


@pytest.mark.parametrize("n,phase", REGISTRY_FLOAT_POINTS)
def test_channel_evaluator_builds_in_full_without_a_class_path(n, phase):
    """At a registry coupling, rounded, a class holds three or more terms, so
    both channels have no class path: the evaluator is eval_at of the full
    kernel output."""
    from loopgas import annulus, params_from_n

    params = params_from_n(n, phase)
    for theta, step in [(annulus.flux_sum(params, None, 200, None, Backend.FLOAT), 1),
                        (annulus._crossed_terms(params, annulus.default_wrap(params), 200), 2)]:
        assert qseries._float_setup(theta, step)[2] is None
        full, evaluate = qseries._euler_kernel(theta, step), qseries._euler_evaluator(theta, step)
        for q in (1e-6, 0.53, 0.99):
            assert repr(evaluate(q)) == repr(full.eval_at(q))


@settings(max_examples=40, deadline=None)
@given(channel_thetas(), st.data())
def test_any_tiling_of_the_columns_is_the_full_kernel(channel, data):
    """The class path's fill over any tiling of its columns into windows joins
    to the full kernel output, which is the row oracle's bit for bit."""
    theta, step = channel
    cols = qseries._float_setup(theta, step)[2]
    assume(cols is not None)
    width, *_, fill = cols
    cuts = sorted(data.draw(st.sets(st.integers(1, max(width - 1, 1)), max_size=8)) - {width})
    es, cs = [], []
    for k0, k1 in zip([0, *cuts], [*cuts, width]):
        x, y = fill(k0, k1)
        es += x
        cs += y
    full, want = qseries._euler_kernel(theta, step), oracle.euler_float_rows(theta, step)
    assert (repr(tuple(es)), repr(tuple(cs))) == (repr(full._n), repr(full._a))
    assert (repr(full._n), repr(full._a), repr(full.cutoff)) == (
        repr(want._n), repr(want._a), repr(want.cutoff))


# -- the floating kernel's cached tables, and the majorant of eval_at -------------


@pytest.mark.parametrize("step", [1, 2])
def test_float_kernel_output_does_not_depend_on_the_cached_tables(monkeypatch, step):
    """From an empty cache, orders 1024, 64 and 1024: the order-64 call reads a
    prefix of the order-1024 lists, and every call matches one row per theta
    term merged by one stable sort (`series_oracle.euler_float_rows`)."""
    monkeypatch.setattr(qseries, "_FLOAT_TABLES", {})
    pairs = [(0.1, 1.0), (1.1 + 3e-13, -1.0), (0.35, 2.5), (0.6, -0.75)]
    for order in (1024, 64, 1024):
        theta = S(pairs, order, Backend.FLOAT)
        got, want = qseries._euler_kernel(theta, step), oracle.euler_float_rows(theta, step)
        assert (repr(got._n), repr(got._a), repr(got.cutoff)) == (
            repr(want._n), repr(want._a), repr(want.cutoff)), order
        b, p = qseries._FLOAT_TABLES[step]
        assert len(b) == len(p) == math.ceil((1024 - 0.1) / step)


def test_a_published_float_table_is_never_changed(monkeypatch):
    """A call within the cached length reads the published lists; a longer one
    publishes longer lists, and the old ones stay the same objects, unchanged."""
    monkeypatch.setattr(qseries, "_FLOAT_TABLES", {})
    theta = S([(0.5, 1.0)], 64.5, Backend.FLOAT)
    qseries._euler_kernel(theta, 2)
    published = qseries._FLOAT_TABLES[2]
    b, p = published
    saved = (list(b), list(p))
    qseries._euler_kernel(theta.truncate(20), 2)
    assert qseries._FLOAT_TABLES[2] is published
    qseries._euler_kernel(S([(0.5, 1.0)], 300.5, Backend.FLOAT), 2)
    longer = qseries._FLOAT_TABLES[2]
    assert longer is not published and len(longer[0]) == 150 > len(b) == 32
    assert published[0] is b and published[1] is p and (b, p) == saved
    assert longer[0][:32] == b and longer[1][:32] == p
    assert b == [k * 2.0 for k in range(32)]
    assert p == [float(x) for x in qseries._partition_numbers(31)]


def exact_kernel_calls():
    """(exact theta, step) at registry couplings, for both steps; a zero theta
    (n' = 0) is returned as it is, and left out."""
    from loopgas import annulus, params_from_n

    thetas = [annulus.flux_sum(params_from_n(n, phase), None, order)
              for n, phase in [(1.0, "dense"), (0.0, "dilute"), (1.0, "dilute"), (0.0, "dense")]
              for order in (64, 400)]
    thetas += [annulus.flux_sum(params_from_n(math.sqrt(3.0), "dense"), None, 400, "even")]
    thetas += [pentagonal_series(300), S([(F(-1, 24), 3), (F(5, 8), F(-7, 2))], 200)]
    return [(t, step) for t in thetas if not t.is_zero for step in (1, 2)]


def test_only_the_float_class_path_hands_a_majorant_on(monkeypatch):
    """Float kernel outputs of the class path carry the 2 max|a| p(K) that
    decided their finiteness.  Exact and sort-path outputs, at steps 1 and 2,
    carry none until their first evaluation, and then max |a/C| (1 + 2^-50).
    Every M is >= max |a/C|, compared exactly."""
    points = [(n, phase, order) for n, phase in REGISTRY_FLOAT_POINTS for order in (64, 256, 400)]
    calls = recorded_kernel_calls(monkeypatch, float_pool_sample(), points)
    merge, merged = qseries._float_terms, []

    def counted(pairs, cutoff):
        merged.append(merge(pairs, cutoff))
        return merged[-1]

    monkeypatch.setattr(qseries, "_float_terms", counted)
    calls += exact_kernel_calls()
    assert {step for _, step in calls} == {1, 2}
    handed = 0
    for theta, step in calls:
        got = qseries._euler_kernel(theta, step)
        assert not got.is_zero
        if theta.backend is Backend.FLOAT and not (merged and got is merged[-1]):
            K = math.ceil((theta.cutoff - theta.min_exponent) / step) - 1
            p_K = float(qseries._partition_numbers(K)[-1])
            assert got._M == 2.0 * (max(map(abs, theta._a)) * p_K)
            handed += 1
        else:
            assert got._M is None
            got.eval_at(0.5)
            if len(got) > 64:
                assert got._M == max(map(abs, got._a)) / got._C * (1.0 + 2.0 ** -50)
        if got._M is not None:
            assert F(got._M) >= F(max(map(abs, got._a))) / got._C
    # both float paths and the exact kernel ran
    assert len(merged) >= 10 and handed >= 10
    assert sum(t.backend is Backend.EXACT for t, _ in calls) >= 10


def test_majorant_takes_no_part_in_equality_hash_or_pickle():
    """A series is equal to, hashes as and pickles to the same bytes as the same
    series rebuilt from its terms, before and after `eval_at` keeps M; and
    `from_terms` series find M lazily, on the first evaluation."""
    from loopgas import annulus, params_from_n

    kernel = annulus.partition_direct(params_from_n(1.3, "dense"), None, 160, Backend.FLOAT)
    lazy = S([(e, c) for e, c in kernel.terms], kernel.cutoff, Backend.FLOAT)
    exact = qseries._euler_kernel(pentagonal_series(300).truncate(F(401, 2)), 2) * F(2, 3)
    for s in (kernel, lazy, exact):
        before, rebuilt = pickle.dumps(s), GenSeries(s.terms, s.cutoff, s.backend)
        assert rebuilt._M is None
        assert s == rebuilt and hash(s) == hash(rebuilt)
        s.eval_at(0.3)
        assert s._M is not None and rebuilt._M is None
        assert s == rebuilt and hash(s) == hash(rebuilt)
        assert pickle.dumps(s) == before == pickle.dumps(rebuilt)
        assert pickle.loads(before) == s and pickle.loads(before)._M is None
    assert kernel._M > F(max(map(abs, kernel._a)))  # the class path's, not the output's max
    assert lazy._M == max(map(abs, lazy._a)) * (1.0 + 2.0 ** -50)


# -- one support finder for every theta, exact and floating ----------------------

REGISTRY_N = [2.0 * math.cos(math.pi * float(angle[0])) for angle in _EXACT_ANGLES]
# Below n = -1.999 the dense g falls towards 0 and the sector count grows as
# g^(-1/2) without bound, which is a resource question, not the finder's.
finder_n = st.one_of(st.floats(-1.999, 2.0), st.sampled_from(REGISTRY_N))
finder_n_prime = st.one_of(st.none(), st.floats(-2.0, 2.0), st.sampled_from([2.0, -2.0]))


@contextlib.contextmanager
def recorded_calls(module, name):
    """Every (args, result) of `module.name`, called through the module global,
    while the block runs."""
    fn, calls = getattr(module, name), []

    def recording(*args):
        calls.append((args, fn(*args)))
        return calls[-1][1]

    setattr(module, name, recording)
    try:
        yield calls
    finally:
        setattr(module, name, fn)


def _wrap(params, phase, n_prime):
    from loopgas import default_wrap, wrap_weight

    return default_wrap(params) if n_prime is None else wrap_weight(phase, n_prime)


def _crossed_exponent(params, w):
    """The crossed summand's exponent and vertex, as `partition_crossed` forms them."""
    from loopgas import annulus

    u, vertex, _ = annulus._crossed_table(params, w)
    return (lambda m: -params.c / 12.0 + annulus._crossed_gap(params, u(m))), vertex


def _finder_examples(exponent_and_vertex):
    """(n, phase, n_prime, cutoff): a cutoff on a sector's exponent and one ulp
    either side, one ulp above the lead (a single sector), one below the
    parabola's least value (negative discriminant), at a generic coupling, at a
    registry coupling with n' rational and with n' generic, at n' = +-2; and
    every coupling of `float_pool_sample()` at its own order."""
    from loopgas import params_from_n

    cases = []
    for n, phase, n_prime in [(1.3, "dense", None), (-0.7, "dilute", None),
                              (1.0, "dilute", 2.0), (1.0, "dilute", None),
                              (math.sqrt(2.0), "dense", 0.7), (0.45, "dense", 2.0),
                              (0.45, "dense", -2.0), (-1.2, "dilute", -2.0)]:
        params = params_from_n(n, phase)
        f, vertex = exponent_and_vertex(params, _wrap(params, phase, n_prime))
        lead, sector = f(round(vertex)), f(round(vertex) + 3)
        cases += [(n, phase, n_prime, top) for top in (
            sector, math.nextafter(sector, -math.inf), math.nextafter(sector, math.inf),
            math.nextafter(lead, math.inf), lead - 1.0)]
    seen = {(n, phase, order) for _, n, phase, order, _ in float_pool_sample()}
    return cases + [(n, phase, None, float(order)) for n, phase, order in sorted(seen)]


def _flux_exponent(params, w):
    from loopgas import annulus

    (_, _, _, f), _ = annulus._exponent(params, False)
    return f, params.m0


@settings(max_examples=200, deadline=None)
@given(finder_n, st.sampled_from(["dilute", "dense"]), finder_n_prime, st.floats(-1.0, 200.0))
@_with_examples(_finder_examples(_flux_exponent))
# float roots rounded one step inside the support: the low, then the high end moves out
@example(-0.006392093163644974, "dense", None, 12.443075383159382)
@example(-0.00020289070301693357, "dense", None, 1.9580750069521098)
def test_flux_range_is_the_walk_and_the_scan(n, phase, n_prime, cutoff):
    """`_flux_range` on both branches, reached from `flux_sum` in both backends
    (the exact branch wherever `_exact_ok` holds, which n' decides at registry
    couplings) and called on the float exponent directly, gives the walk
    oracle's and a scan's (p, exponent) list."""
    from loopgas import annulus, flux_sum, params_from_n

    params = params_from_n(n, phase)
    w = _wrap(params, phase, n_prime)
    exact = annulus._exact_ok(params, w)
    with recorded_calls(annulus, "_flux_range") as calls:
        annulus._flux_range(cutoff, *annulus._exponent(params, False)[0])
        for backend in (Backend.FLOAT, Backend.EXACT) if exact else (Backend.FLOAT,):
            with contextlib.suppress(DomainError):  # the cutoff is below the lead
                flux_sum(params, w, cutoff, None, backend)
    assert all((args[4] is None) is exact for args, _ in calls[1:])
    for (top, a, b, c, f), got in calls:
        if f is None:
            f, vertex = (lambda k: (a * k + b) * k + c), F(-b, 2 * a)
        else:
            assert (a, b, c) == (params.g / 4.0, -params.g / 2.0 * params.m0, f(0))
            vertex = params.m0
        assert got == oracle.quadratic_support(f, top, vertex) == scan_support(f, top, vertex, a)


@settings(max_examples=200, deadline=None)
@given(finder_n, st.sampled_from(["dilute", "dense"]), finder_n_prime, st.floats(-1.0, 200.0))
@_with_examples(_finder_examples(_crossed_exponent))
# float roots rounded one step inside the support: the low, then the high end moves out
@example(-1.4116609536830027, "dilute", 2.0, 1.0598988037401347)
@example(0.9626143567839494, "dilute", None, 0.9445503525916733)
def test_crossed_support_is_the_walk_and_the_scan(n, phase, n_prime, cutoff):
    """`partition_crossed` finds its charges by one `_integer_support` call on
    its own exponent, in each u-form (generic chi', chi' = 0 at n' = 2 and
    chi' = +-pi at n' = -2), and they are the walk oracle's and a scan's."""
    from loopgas import annulus, params_from_n

    params = params_from_n(n, phase)
    w = _wrap(params, phase, n_prime)
    with recorded_calls(annulus, "_integer_support") as calls:
        # below the lead, or a ln(qtilde) term in a paired form at n' = +-2
        with contextlib.suppress(DomainError, IdentityError):
            annulus.partition_crossed(params, w, cutoff)
    [((_, _, _, top, f), got)] = calls
    vertex = _crossed_exponent(params, w)[1]
    want = oracle.quadratic_support(f, top, vertex)
    assert got == want == scan_support(f, top, vertex, 2.0 / params.g)
    assert want == oracle.quadratic_support(_crossed_exponent(params, w)[0], cutoff, vertex)


# -- evaluation that stops at the last bit it can change -------------------------

mantissas = st.floats(-1, 1, allow_subnormal=False).filter(bool)
float_scaled = st.builds(math.ldexp, mantissas, st.integers(-60, 60))


@st.composite
def eval_cases(draw):
    """(series, q): up to 300 terms, floating or exact on lattices with D, C > 1,
    coefficients spread over 2^-60 .. 2^60 in either sign."""
    k, q = draw(st.integers(0, 300)), draw(st.floats(0.001, 0.999))
    if draw(st.booleans()):
        D, C = draw(st.integers(1, 48)), draw(st.integers(1, 10**6))
        start = draw(st.integers(-2 * D, 4 * D))
        steps = draw(st.lists(st.integers(1, 3 * D), min_size=k, max_size=k))
        slots = list(zip(accumulate(steps, initial=start),
                         draw(st.lists(st.integers(-2**64, 2**64).filter(bool),
                                       min_size=k, max_size=k))))
        return qseries._slot_series(slots, D, C, F(start + sum(steps) + 1, D)), q
    start = draw(st.floats(-3, 3))
    steps = draw(st.lists(st.floats(1e-3, 3), min_size=k, max_size=k))
    exps = list(accumulate(steps, initial=start))
    pairs = list(zip(exps, draw(st.lists(float_scaled, min_size=k, max_size=k))))
    return S(pairs, exps[-1] + 1, Backend.FLOAT), q


def _power_of_two_sum():
    """1.0 after 64 terms, then a term between a quarter and a half ulp(1) below
    it: 1 - 1.5 * 2^-54 rounds to 1 - 2^-53, so a half-ulp rule would stop."""
    pairs = [(0.0, 1.0)] + [(float(k), 1e-300) for k in range(1, 64)] + [(64.0, -1536.0)]
    pairs += [(float(k), 1e-3) for k in range(65, 200)]
    return S(pairs, 200, Backend.FLOAT), 0.5


def _cancelling_sum():
    """Pairs x q^{2k} - 2x q^{2k+1} at q = 1/2 cancel exactly: 0.0 after 64 terms."""
    pairs = [t for k in range(32) for t in ((2.0 * k, 3.0 + k), (2.0 * k + 1, -6.0 - 2 * k))]
    return S(pairs + [(64.0 + k, 0.25) for k in range(100)], 170, Backend.FLOAT), 0.5


def _eval_examples():
    from loopgas import annulus, observables, params_from_n

    kernel = annulus.partition_direct(params_from_n(1.3, "dense"), None, 256, Backend.FLOAT)
    crossed = annulus.partition_crossed(params_from_n(-1.07, "dense"), None, 140)
    return [
        _power_of_two_sum(), _cancelling_sum(),
        (-kernel, 0.2),                                                     # negative
        (S([(k / 3, -(k % 7) - 1.0) for k in range(200)], 70, Backend.FLOAT), 0.4),
        (S([(k * 8.0, 1.0) for k in range(150)], 1300, Backend.FLOAT), 0.5),  # underflow
        (S([(1000.0 + k, 1.0) for k in range(150)], 1200, Backend.FLOAT), 0.5),  # subnormal
        (observables.crossing_probability(160) * F(1, 3), 0.3),             # exact, C > 1
        (observables.saw_loop_dilute(160) * F(-2, 7), 0.6),
        (kernel, 0.1), (kernel, 0.53), (crossed, 0.28),                     # M handed on
        (S(kernel.terms, kernel.cutoff, Backend.FLOAT), 0.3),               # M found lazily
    ]


def _with_eval_examples(test):
    for case in _eval_examples():
        test = example(case)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(eval_cases())
@_with_eval_examples
def test_eval_at_is_the_sequential_sum_bit_for_bit(case):
    """eval_at, which stops before a block of terms that cannot change a bit,
    against all terms added one at a time (`series_oracle.eval_sequential`):
    value and tail the same down to the last bit, by repr."""
    series, q = case
    assert repr(series.eval_at(q)) == repr(oracle.eval_sequential(series, q))


def test_eval_at_stops_early(monkeypatch):
    """Float Z(n = 1.3 dense) at order 1024 evaluates under 5% of its terms at
    q = 0.1, counted by its calls to exp, and gives the full sum's value."""
    from loopgas import annulus, params_from_n

    series = annulus.partition_direct(params_from_n(1.3, "dense"), None, 1024, Backend.FLOAT)
    want = oracle.eval_sequential(series, 0.1)
    exp, calls = math.exp, []

    def counted(x):
        calls.append(x)
        return exp(x)

    monkeypatch.setattr(math, "exp", counted)
    got = series.eval_at(0.1)
    monkeypatch.undo()
    assert len(series) > 50_000 and 0 < len(calls) < 0.05 * len(series)
    assert repr(got) == repr(want)


# -- floating from_terms: one pass over the pairs, the first bad pair's error ------


@pytest.mark.parametrize("pairs, message", [
    ([(0.0, 1.0), (math.nan, 2.0)], "exponent must be finite, got nan"),
    ([(0.0, 1.0), (1.0, math.inf)], "coefficient must be finite, got inf"),
    ([(0.0, 1.0), (1.0, -math.inf)], "coefficient must be finite, got -inf"),
    ([(0.0, 10**400)], "coefficient is too large for a float"),
    ([(F(10**400, 3), 1.0)], "exponent is too large for a float"),
    ([(0.0, 1.0), (math.nan, 1.0), (2.0, 10**400)], "exponent must be finite, got nan"),
    ([(2.0, 10**400), (math.nan, 1.0)], "coefficient is too large for a float"),
    ([(1.0, math.inf), (math.inf, 1.0)], "coefficient must be finite, got inf"),
])
@pytest.mark.parametrize("container", [list, iter])
def test_float_from_terms_reports_the_first_bad_pair(pairs, message, container):
    """Each pair is converted and checked in one pass, exponent first, so the
    first bad pair's DomainError is raised, word for word, from a list or a
    one-shot iterator alike."""
    with pytest.raises(DomainError) as err:
        GenSeries.from_terms(container(pairs), 4, Backend.FLOAT)
    assert str(err.value) == message


bad_values = st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400, F(10**400, 3)])


@st.composite
def pairs_with_bad_values(draw):
    """Finite float pairs with nan, an infinity, a huge int or a huge Fraction
    put at one to three random positions, in exponents or in coefficients."""
    pairs = draw(st.lists(st.lists(st.one_of(dyadic, float_coefficients), min_size=2,
                                   max_size=2), min_size=1, max_size=12))
    for _ in range(draw(st.integers(1, 3))):
        pair = draw(st.sampled_from(pairs))
        pair[draw(st.integers(0, 1))] = draw(bad_values)
    return [tuple(pair) for pair in pairs]


def first_bad_pair_message(pairs):
    """The DomainError message of the first bad value, found by walking the
    pairs one at a time, exponent before coefficient."""
    for pair in pairs:
        for x, what in zip(pair, ("exponent", "coefficient")):
            try:
                x = float(x)
            except OverflowError:
                return f"{what} is too large for a float"
            if not math.isfinite(x):
                return f"{what} must be finite, got {x!r}"
    return None


@settings(max_examples=200, deadline=None)
@given(pairs_with_bad_values(), st.sampled_from([list, iter]))
def test_float_from_terms_raises_the_first_bad_values_error(pairs, container):
    """Float `from_terms` on pairs holding nan, an infinity or a value past the
    doubles raises the DomainError of the first bad value, as a walk over the
    pairs one at a time finds it."""
    want = first_bad_pair_message(pairs)
    assert want is not None
    with pytest.raises(DomainError) as err:
        GenSeries.from_terms(container(pairs), 4, Backend.FLOAT)
    assert str(err.value) == want


@settings(max_examples=120, deadline=None)
@given(float_pairs(), st.floats(0, 3), st.floats(-3, 3), st.floats(0.125, 5),
       st.floats(-5, 5).filter(bool))
def test_float_series_is_the_series_of_its_terms(case, drop, delta, factor, k):
    """A floating series built from a tuple, a list or a generator of its
    terms, by `from_terms` or by a pickle round trip is one series in every
    view; the printed forms and every operation that reads the exponent and
    coefficient tuples match the formulas on `terms`, bit for bit."""
    pairs, cutoff = case
    t = S(pairs, cutoff, Backend.FLOAT)
    terms, c = t.terms, t.cutoff
    view = term_view(t)
    for s in (GenSeries(tuple(terms), c, Backend.FLOAT), GenSeries(list(terms), c, Backend.FLOAT),
              GenSeries((x for x in terms), c, Backend.FLOAT), S(terms, c, Backend.FLOAT),
              pickle.loads(pickle.dumps(t))):
        assert s == t and hash(s) == hash(t) and len(s) == len(t)
        assert repr(s.terms) == repr(terms) and printed(s) == view
        assert s.min_exponent == t.min_exponent
    ops = [
        (lambda: t.truncate(c - drop), [(e, x) for e, x in terms if e < c - drop], c - drop),
        (lambda: -t, [(e, -x) for e, x in terms], c),
        # a product that underflows to 0.0 is dropped, as `from_terms` drops it
        (lambda: t * k, [(e, x * k) for e, x in terms if x * k], c),
        (lambda: t.shift(delta), [(e + delta, x) for e, x in terms], c + delta),
        (lambda: t.dilate(factor), [(e * factor, x) for e, x in terms], c * factor),
    ]
    for op, want, want_cutoff in ops:
        exponents = [e for e, _ in want]
        ladder = exponents + [want_cutoff]
        # refused unless strictly increasing and spaced as `from_terms` spaces them
        if (any(x >= y for x, y in zip(ladder, ladder[1:])) or any(
                y - x < qseries.FLOAT_EXPONENT_TOL for x, y in zip(exponents, exponents[1:]))):
            with pytest.raises(DomainError, match="not finite and strictly increasing"):
                op()
            continue
        got = op()
        assert repr(list(map(tuple, got.terms))) == repr(want)
        assert repr(got.cutoff) == repr(want_cutoff)
        assert printed(got) == term_view(got)


@st.composite
def exact_series_past_the_doubles(draw):
    """An exact series with coefficients down to 10^-400, past the least double,
    on exponents in clusters 10^-12 apart, closer than FLOAT_EXPONENT_TOL, below
    a cutoff that may fall inside a cluster."""
    tiny, base = F(1, 10**12), draw(st.lists(st.integers(-4, 8), min_size=1, max_size=4))
    pairs = [(draw(st.sampled_from(base)) + draw(st.integers(0, 3)) * tiny,
              F(draw(st.integers(-3, 3)), 10 ** draw(st.sampled_from([0, 20, 310, 320, 400]))))
             for _ in range(draw(st.integers(0, 10)))]
    return S(pairs, draw(st.integers(-2, 10)) + draw(st.integers(-1, 1)) * tiny)


small_floats = st.one_of(st.sampled_from([5e-324, 1e-300, 1e-160]), st.floats(1e-310, 1e3))
signed_small_floats = st.tuples(small_floats, st.sampled_from([1, -1])).map(lambda x: x[0] * x[1])


def assert_floating_layout(s):
    """No 0.0 coefficient, and no two exponents closer than FLOAT_EXPONENT_TOL."""
    assert s.backend is Backend.FLOAT and all(s._a)
    assert all(y - x >= qseries.FLOAT_EXPONENT_TOL for x, y in zip(s._n, s._n[1:]))


@settings(max_examples=150, deadline=None)
@given(exact_series_past_the_doubles(),
       st.lists(st.tuples(st.floats(-2, 8), signed_small_floats), max_size=8),
       signed_small_floats)
@example(S([(0, F(1, 10**400)), (1, 1)], 2), [], 1.0)      # a coefficient underflows
@example(S([(0, 1), (F(1, 10**12), 1)], 2), [], 1.0)        # exponents 10^-12 apart
@example(S([], 1), [(0, 1e-300), (1, 1.0)], 1e-300)         # a product underflows
def test_every_floating_result_is_the_series_of_its_floats(exact, pairs, k):
    """An exact series rounded to the doubles, and a floating series times a
    scalar, are `from_terms` of their own floats: a coefficient that rounds or
    underflows to 0.0 is dropped, and exponents within FLOAT_EXPONENT_TOL are
    one term, as everywhere else in the floating backend."""
    rounded = exact._rounded()
    assert rounded == GenSeries.from_terms(
        [(float(e), float(c)) for e, c in exact.terms], float(exact.cutoff), Backend.FLOAT)
    t = S(pairs, 9.0, Backend.FLOAT)
    scaled = t * k
    assert scaled == k * t == S([(e, c * k) for e, c in t.terms], t.cutoff, Backend.FLOAT)
    for s in (rounded, scaled):
        assert_floating_layout(s)


@pytest.mark.parametrize("series, want", [
    (lambda: S([(0, F(1, 10**400)), (1, 1)], 2)._rounded(), [(1.0, 1.0)]),
    (lambda: S([(0, 1), (F(1, 10**12), 1)], 2)._rounded(), [(0.0, 2.0)]),
    (lambda: S([(0, 1e-300), (1, 1.0)], 2, Backend.FLOAT) * 1e-300, [(1.0, 1e-300)]),
])
def test_the_floating_layout_drops_zeros_and_merges_near_exponents(series, want):
    got = series()
    assert [tuple(t) for t in got.terms] == want
    assert got == S(got.terms, got.cutoff, Backend.FLOAT)


# -- serialization ----------------------------------------------------------------


class TestValue:
    def test_fields_cannot_be_assigned_or_deleted(self):
        s = euler_inverse(5)
        for change in (lambda: setattr(s, "cutoff", 3), lambda: delattr(s, "_n"),
                       lambda: setattr(s, "extra", 0)):
            with pytest.raises(AttributeError, match="cannot assign to field"):
                change()
        assert s == euler_inverse(5)

    def test_comparison_with_another_type_is_left_to_it(self):
        s = euler_inverse(5)
        assert s.__eq__(5) is NotImplemented and s.__eq__(s.terms) is NotImplemented
        assert s != 5 and not s == "x"


class TestSerialization:
    def test_json_round_trip_exact(self):
        s = dedekind_eta_series(20) * euler_inverse(20)
        blob = json.dumps(s.to_json_dict())
        assert GenSeries.from_json_dict(json.loads(blob)) == s

    def test_json_round_trip_float(self):
        s = euler_inverse(12, Backend.FLOAT).shift(-1.0 / 24.0) * 0.75
        blob = json.dumps(s.to_json_dict())
        assert GenSeries.from_json_dict(json.loads(blob)) == s

    def test_json_schema_fields(self):
        d = pentagonal_series(6).to_json_dict()
        assert d["backend"] == "exact-rational"
        assert set(d) == {"backend", "cutoff", "terms"}
        assert all(set(t) == {"exponent", "coefficient"} for t in d["terms"])
        assert d["terms"][0] == {"exponent": "0", "coefficient": "1"}

    def test_csv_rows(self):
        rows = dedekind_eta_series(3).to_csv_rows()
        assert rows[0] == ("1/24", "1")

    @pytest.mark.parametrize("series", [
        dedekind_eta_series(20) * euler_inverse(20),
        S([(10**17 + 1, 1), (F(10**17 + 3, 2), F(-5, 3))], 10**18),
        GenSeries.zero(F(5, 3)),
        GenSeries.zero(-0.0),
        euler_inverse(12, Backend.FLOAT).shift(-1.0 / 24.0) * 0.75,
        S([(-0.0, 1.0), (1.0, -2.5)], 3, Backend.FLOAT),
        S([(1e16, 3.0), (1e16 + 2.0, -1.0), (2.5e17, 1e20)], 1e18, Backend.FLOAT),
        GenSeries.zero(-0.0, Backend.FLOAT),
        GenSeries.zero(12.5, Backend.FLOAT),
    ], ids=["exact", "exact past 1e16", "exact zero", "exact zero at -0.0", "floating",
            "floating at -0.0", "floating past 1e16", "floating zero at -0.0", "floating zero"])
    def test_document_is_the_first_encoders(self, series):
        # the same JSON text, so -0.0 against 0.0 and 1.0 against 1 would show
        got, want = series.to_json_dict(), oracle.json_document(series)
        assert json.dumps(got) == json.dumps(want)
        assert repr(got) == repr(want)

    def test_float_exponent_merge(self):
        s = S([(0.1, 1.0), (0.1 + 1e-12, 1.0)], 5, Backend.FLOAT)
        assert len(s) == 1 and s.terms[0].coefficient == 2.0
