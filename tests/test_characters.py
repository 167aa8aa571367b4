"""Rocha-Caridi characters against an independent Verma-module oracle."""

import math
from fractions import Fraction as F

import pytest
import series_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st
from virasoro_oracle import gram_matrix, irreducible_dims

from loopgas import (
    Backend,
    CharacterSpec,
    DecompositionError,
    DomainError,
    GenSeries,
    characters,
    crossing_probability,
    decompose,
    decomposition_to_json,
    euler_inverse,
    params_from_n,
    partition_direct,
    partition_direct_parity,
    qseries,
    rocha_caridi,
    saw_loop_dense,
)

# Level dimensions computed once with the Gram-rank oracle below and frozen.
FROZEN_DIMS = {
    (3, 4, 1, 1): [1, 0, 1, 1, 2, 2, 3],
    (3, 4, 1, 3): [1, 1, 1, 1, 2, 2, 3],
    (3, 4, 1, 2): [1, 1, 1, 2, 2, 3, 4],
    (5, 6, 1, 1): [1, 0, 1, 1, 2, 2, 4],
    (5, 6, 1, 3): [1, 1, 2, 2, 4, 5, 8],
    (5, 6, 1, 5): [1, 1, 2, 3, 4, 5, 8],
    (2, 3, 1, 1): [1, 0, 0, 0, 0, 0, 0],
}


def char_dims(spec, levels):
    ch = rocha_caridi(spec, cutoff=spec.leading_exponent + levels + 1)
    return [int(ch.coefficient(spec.leading_exponent + k)) for k in range(levels + 1)]


class TestCharacterSpec:
    def test_central_charges(self):
        assert CharacterSpec(3, 4, 1, 1).central_charge == F(1, 2)
        assert CharacterSpec(5, 6, 1, 1).central_charge == F(4, 5)
        assert CharacterSpec(2, 3, 1, 1).central_charge == 0

    def test_weights(self):
        assert CharacterSpec(3, 4, 1, 3).h == F(1, 2)
        assert CharacterSpec(5, 6, 1, 3).h == F(2, 3)
        assert CharacterSpec(5, 6, 1, 5).h == 3

    @pytest.mark.parametrize(
        "args", [(3, 4, 0, 1), (3, 4, 3, 1), (3, 4, 1, 4), (4, 6, 1, 1), (4, 3, 1, 1)]
    )
    def test_invalid_labels(self, args):
        with pytest.raises(DomainError):
            CharacterSpec(*args)


class TestRochaCaridi:
    def test_vacuum_leading_exponents(self):
        ch = rocha_caridi(CharacterSpec(3, 4, 1, 1), cutoff=5)
        head = [e - ch.terms[0].exponent for e, _ in ch.terms[:4]]
        assert ch.terms[0].exponent == -F(1, 48)
        assert head == [0, 2, 3, 4]

    def test_energy_leading_exponent(self):
        ch = rocha_caridi(CharacterSpec(3, 4, 1, 3), cutoff=5)
        assert ch.terms[0].exponent == F(1, 2) - F(1, 48)

    def test_potts_spin5_leading_exponent(self):
        ch = rocha_caridi(CharacterSpec(5, 6, 1, 5), cutoff=6)
        assert ch.terms[0].exponent == 3 - F(1, 30)

    @pytest.mark.parametrize("key,dims", sorted(FROZEN_DIMS.items()))
    def test_frozen_oracle_dims(self, key, dims):
        assert char_dims(CharacterSpec(*key), len(dims) - 1) == dims

    @pytest.mark.parametrize("key", sorted(FROZEN_DIMS))
    def test_live_gram_rank_oracle(self, key):
        # recompute the frozen table from Verma-module Gram-matrix ranks
        spec = CharacterSpec(*key)
        assert (
            irreducible_dims(spec.h, spec.central_charge, 6) == FROZEN_DIMS[key]
        )

    def test_level_one_gram_is_2h(self):
        assert gram_matrix(1, F(1, 2), F(1, 2)) == [[F(1)]]

    def test_positive_integer_coefficients(self):
        for key in FROZEN_DIMS:
            ch = rocha_caridi(CharacterSpec(*key), cutoff=30)
            assert all(
                c.denominator == 1 and c >= 0 for _, c in ch.terms
            )

    def test_level_counting_bounded_by_partitions(self):
        # descendant count <= p(k), first failing exactly at the null level
        eul = euler_inverse(12)
        for key, null_level in [((3, 4, 1, 1), 1), ((3, 4, 1, 3), 2)]:
            dims = char_dims(CharacterSpec(*key), 8)
            pk = [int(eul.coefficient(k)) for k in range(9)]
            assert all(d <= p for d, p in zip(dims, pk))
            first_fail = next(k for k in range(9) if dims[k] < pk[k])
            assert first_fail == null_level

    def test_float_backend(self):
        ch = rocha_caridi(CharacterSpec(3, 4, 1, 1), cutoff=8, backend=Backend.FLOAT)
        assert abs(ch.terms[0].exponent + 1 / 48) < 1e-12

    def test_every_character_starts_at_h_minus_c_over_24(self):
        # the numerator's least slot is its k = 0 term of offset p'r - ps, so
        # every character starts at h - c/24 with coefficient 1
        specs = [CharacterSpec(p, pp, r, s) for pp in range(3, 13) for p in range(2, pp)
                 if math.gcd(p, pp) == 1 for r in range(1, p) for s in range(1, pp)]
        assert len(specs) == 1208
        for spec in specs:
            lead = spec.leading_exponent
            assert rocha_caridi(spec, lead + 2).terms[0] == (lead, 1), spec


class TestFamilyRegrouping:
    def test_ising_four_families_resum(self):
        # the four flux families 12k^2+k, -(12k^2-7k+1), 12k^2+5k+1/2,
        # -(12k^2+13k+7/2), shifted by -1/48, regroup into chi11 + chi13
        cutoff = 40
        pairs = []
        for k in range(-30, 31):
            pairs.append((F(12 * k * k + k) - F(1, 48), 1))
            pairs.append((F(12 * k * k - 7 * k + 1) - F(1, 48), -1))
            pairs.append((F(12 * k * k + 5 * k) + F(1, 2) - F(1, 48), 1))
            pairs.append((F(12 * k * k + 13 * k) + F(7, 2) - F(1, 48), -1))
        theta = GenSeries.from_terms(pairs, cutoff, Backend.EXACT)
        z = theta * euler_inverse(cutoff + F(1, 48))
        expected = rocha_caridi(CharacterSpec(3, 4, 1, 1), cutoff) + rocha_caridi(
            CharacterSpec(3, 4, 1, 3), cutoff
        )
        assert z.truncate(expected.cutoff) == expected


class TestDecompose:
    def test_each_character_against_itself(self):
        for key in FROZEN_DIMS:
            spec = CharacterSpec(*key)
            ch = rocha_caridi(spec, cutoff=25)
            assert decompose(ch, [spec]) == {spec: 1}

    def test_ising_partition_function(self):
        Z = partition_direct(params_from_n(1.0, "dilute"), cutoff=40)
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
        out = decompose(Z, basis)
        assert out == {basis[0]: 1, basis[1]: 1}

    def test_potts3_even_sector(self):
        Z = partition_direct_parity(
            params_from_n(math.sqrt(3.0), "dense"), cutoff=40, parity="even"
        )
        basis = [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)]
        out = decompose(Z, basis)
        assert [out[b] for b in basis] == [1, 2, 1]

    def test_trivial_constant_partition_function(self):
        Z = partition_direct(params_from_n(0.0, "dilute"), cutoff=40)
        vacuum = CharacterSpec(2, 3, 1, 1)  # the c = 0 identity character is 1
        assert decompose(Z, [vacuum]) == {vacuum: 1}

    def test_incomplete_basis_raises_with_residual(self):
        Z = partition_direct_parity(
            params_from_n(math.sqrt(3.0), "dense"), cutoff=30, parity="even"
        )
        with pytest.raises(DecompositionError) as err:
            decompose(Z, [CharacterSpec(5, 6, 1, 1)])
        assert err.value.residual is not None
        assert not err.value.residual.is_zero

    def test_duplicate_leading_exponent_rejected(self):
        spec = CharacterSpec(3, 4, 1, 1)
        with pytest.raises(DomainError):
            decompose(rocha_caridi(spec, 20), [spec, spec])

    def test_json_schema(self):
        basis = [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)]
        Z = partition_direct_parity(
            params_from_n(math.sqrt(3.0), "dense"), cutoff=30, parity="even"
        )
        d = decomposition_to_json(decompose(Z, basis))
        assert d["model"] == {"p": 5, "q": 6}
        assert d["terms"] == [
            {"r": 1, "s": 1, "coefficient": 1},
            {"r": 1, "s": 3, "coefficient": 2},
            {"r": 1, "s": 5, "coefficient": 1},
        ]

    def test_json_of_a_floating_decomposition_writes_floats(self):
        # Ising Z = chi_11 + chi_13 in both backends: the exact document writes
        # ints, the floating one floats equal to them
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
        exact, floating = (
            decomposition_to_json(decompose(
                partition_direct(params_from_n(1.0, "dilute"), cutoff=40, backend=b), basis))
            for b in (Backend.EXACT, Backend.FLOAT))
        coefficients = [t["coefficient"] for t in floating["terms"]]
        assert coefficients == [1.0, 1.0] and all(type(c) is float for c in coefficients)
        assert [type(t["coefficient"]) for t in exact["terms"]] == [int, int]
        assert floating == exact

    @pytest.mark.parametrize("cutoff", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
    def test_non_finite_cutoff_raises(self, cutoff, backend):
        Z = partition_direct(params_from_n(1.0, "dilute"), cutoff=20, backend=backend)
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
        with pytest.raises(DomainError, match="finite"):
            decompose(Z, basis, cutoff=cutoff)

    @pytest.mark.parametrize("cutoff", [20, F(45, 4)])
    def test_term_at_the_cutoff_lies_outside(self, cutoff):
        """A term exactly at the peel-off cutoff is not part of Z below it."""
        Z = partition_direct(params_from_n(1.0, "dilute"), cutoff=40)
        Z = Z + GenSeries.from_terms([(cutoff, 5)], Z.cutoff)
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
        assert decompose(Z, basis, cutoff) == {basis[0]: 1, basis[1]: 1}
        assert oracle.peel_off(Z, basis, cutoff) == ({basis[0]: 1, basis[1]: 1},
                                                      GenSeries.zero(cutoff))

    def test_exact_path_bypasses_series_arithmetic(self, monkeypatch):
        """Exact decompose, partition_direct (and its parity sectors),
        crossing_probability and saw_loop_dense run on the integer lattice:
        no series addition, product or normalisation."""
        ising = params_from_n(1.0, "dilute")
        direct = partition_direct(ising, cutoff=200)
        even = partition_direct_parity(ising, cutoff=200)
        crossing = crossing_probability(200)
        dense = saw_loop_dense(200)

        def refuse(*args, **kwargs):
            raise AssertionError("series arithmetic on an exact lattice path")

        for name in ("__add__", "__sub__", "__mul__", "__rmul__"):
            monkeypatch.setattr(GenSeries, name, refuse)
        monkeypatch.setattr(GenSeries, "from_terms", staticmethod(refuse))
        Z = partition_direct(ising, cutoff=200)
        assert Z == direct
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
        out = decompose(Z, basis)
        assert out == {basis[0]: 1, basis[1]: 1}
        assert all(isinstance(c, F) for c in out.values())
        assert crossing_probability(200) == crossing
        assert partition_direct_parity(ising, cutoff=200) == even
        assert saw_loop_dense(200) == dense

    def test_exact_partition_never_lifts_theta_onto_a_lattice(self, monkeypatch):
        """Exact series stay on their integer lattice from theta to the
        peel-off: building partition functions and decomposing the 3-state
        Potts even sector at order 1024 builds no Fraction term, for Z or for
        any character."""
        dense = params_from_n(1.0, "dense")
        expected = [partition_direct(dense, cutoff=60),
                    partition_direct_parity(dense, cutoff=60, parity="odd")]
        potts = params_from_n(math.sqrt(3.0), "dense")
        basis = [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)]

        def refuse(*args):
            raise AssertionError("an exact series built its terms")

        monkeypatch.setattr(qseries, "SeriesTerm", refuse)
        assert [partition_direct(dense, cutoff=60),
                partition_direct_parity(dense, cutoff=60, parity="odd")] == expected
        Z = partition_direct_parity(potts, None, 1024, "even")
        assert decompose(Z, basis) == dict(zip(basis, (1, 2, 1)))
        assert Z._terms is None

    def test_float_ising(self):
        Z = partition_direct(params_from_n(1.0, "dilute"), cutoff=40,
                             backend=Backend.FLOAT)
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
        out = decompose(Z, basis)
        assert out == {basis[0]: 1.0, basis[1]: 1.0}
        assert all(type(c) is float for c in out.values())

    def test_float_potts_even_is_the_rounded_exact_decomposition(self):
        """The floating 3-state Potts even sector is the exact theta rounded
        once and then completed, so its peel-off leaves no rounding remainder
        at order 40 and finds the exact multiplicities 1, 2, 1."""
        Z = partition_direct_parity(params_from_n(math.sqrt(3.0), "dense"),
                                    cutoff=40, parity="even", backend=Backend.FLOAT)
        basis = [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)]
        out = decompose(Z, basis)
        assert out == dict(zip(basis, (1.0, 2.0, 1.0)))
        assert all(type(c) is float for c in out.values())

    @pytest.mark.parametrize("order", [40, 400, 1024])
    @pytest.mark.parametrize("model", ["ising", "potts even"])
    def test_float_decompose_adds_no_series(self, monkeypatch, model, order):
        """Float decompose reads the coefficients off the numerators, as exact
        decompose does, and completes sum c_i theta_i rounded once, the rule
        the floating Z's own theta follows: the completion is Z bit for bit,
        so no rounding residue is left at any order and no series is added."""
        if model == "ising":
            Z = partition_direct(params_from_n(1.0, "dilute"), None, order, Backend.FLOAT)
            basis, mults = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)], (1, 1)
        else:
            Z = partition_direct_parity(params_from_n(math.sqrt(3.0), "dense"), None, order,
                                        "even", Backend.FLOAT)
            basis, mults = [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)], (1, 2, 1)

        def refuse(*args):
            raise AssertionError("float decompose added two series")

        monkeypatch.setattr(GenSeries, "__add__", refuse)
        out = decompose(Z, basis)
        assert out == dict(zip(basis, mults))
        assert all(type(c) is float for c in out.values())


# -- the lattice peel-off against series arithmetic ----------------------------


def _kac_basis(p, p_prime):
    """One spec per distinct leading exponent of M(p, p')."""
    seen = {}
    for r in range(1, p):
        for s in range(1, p_prime):
            spec = CharacterSpec(p, p_prime, r, s)
            seen.setdefault(spec.leading_exponent, spec)
    return list(seen.values())


KAC_BASES = [_kac_basis(3, 4), _kac_basis(4, 5), _kac_basis(5, 6)]


def _outcome(coeffs, remainder):
    if remainder.is_zero:
        return "coefficients", coeffs
    return "residual", remainder


def _lattice_outcome(Z, basis, cutoff):
    try:
        return _outcome(decompose(Z, basis, cutoff), GenSeries.zero(1))
    except DecompositionError as err:
        return _outcome({}, err.residual)


@st.composite
def character_sums(draw):
    basis = draw(st.sampled_from(KAC_BASES))
    cutoff = draw(st.sampled_from([8, 30, F(211, 2), F(37, 3), 64]))
    mults = draw(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=6),
                          min_size=len(basis), max_size=len(basis)))
    Z = GenSeries.zero(cutoff)
    for spec, m in zip(basis, mults):
        Z = Z + rocha_caridi(spec, cutoff) * m
    peel_cutoff = draw(st.sampled_from([None, 20, F(45, 4), 7.5]))
    return Z, basis, peel_cutoff, dict(zip(basis, mults))


@settings(max_examples=60, deadline=None)
@given(character_sums(),
       st.one_of(st.none(), st.tuples(
           st.fractions(min_value=F(-1, 24), max_value=8, max_denominator=120),
           st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))))
def test_lattice_decompose_matches_series_peel_off(case, perturbation):
    """Z = sum m_i chi_i over a full Kac table decomposes to the m_i exactly as
    the series-arithmetic peel-off does; a one-term perturbation gives the
    same coefficients or the same DecompositionError residual."""
    Z, basis, cutoff, mults = case
    if perturbation is None:
        assert decompose(Z, basis, cutoff) == mults
    else:
        Z = Z + GenSeries.from_terms([perturbation], Z.cutoff)
    expected = _outcome(*oracle.peel_off(Z, basis, cutoff))
    assert _lattice_outcome(Z, basis, cutoff) == expected


# -- exact decompose: one completion, on the numerators ------------------------


def _potts_even(cutoff):
    return partition_direct_parity(params_from_n(math.sqrt(3.0), "dense"), cutoff=cutoff,
                                   parity="even")


def _fractional_sum(cutoff):
    """sum m_i chi_i over the M(4, 5) Kac table, with multiplicities on 1/42."""
    Z = GenSeries.zero(cutoff)
    for spec, m in zip(_kac_basis(4, 5), (F(1, 2), F(3, 7), 0, F(5, 3), 2, F(1, 6))):
        Z = Z + rocha_caridi(spec, cutoff) * m
    return Z


DECOMPOSE_CASES = {
    "ising": lambda: (partition_direct(params_from_n(1.0, "dilute"), cutoff=40),
                      [CharacterSpec(3, 4, 1, 3), CharacterSpec(3, 4, 1, 1)], None),
    "zero Z": lambda: (GenSeries.zero(30), _kac_basis(4, 5), None),
    "fraction multiplicities": lambda: (_fractional_sum(30), _kac_basis(4, 5), None),
    "cutoff below Z's": lambda: (_potts_even(60), [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)],
                                 F(45, 2)),
    "residual": lambda: (_potts_even(30), [CharacterSpec(5, 6, 1, 1), CharacterSpec(5, 6, 1, 3)],
                         20),
}


@pytest.mark.parametrize("case", list(DECOMPOSE_CASES))
def test_exact_decompose_completes_once(monkeypatch, case):
    """Exact decompose calls the Euler kernel once, on sum c_i theta_i, and
    never builds a character; its coefficients, or its DecompositionError and
    residual, are the series peel-off's (`series_oracle.peel_off`)."""
    Z, basis, cutoff = DECOMPOSE_CASES[case]()
    expected = _outcome(*oracle.peel_off(Z, basis, cutoff))
    kernel, calls = qseries._euler_kernel, []

    def counted(theta, step=1):
        calls.append(theta)
        return kernel(theta, step)

    def refuse(*args, **kwargs):
        raise AssertionError("exact decompose built a character")

    monkeypatch.setattr(qseries, "_euler_kernel", counted)  # looked up by `_complete`
    monkeypatch.setattr(characters, "rocha_caridi", refuse)
    assert _lattice_outcome(Z, basis, cutoff) == expected
    assert len(calls) == 1
    if case == "zero Z":
        assert expected == ("coefficients", dict.fromkeys(basis, 0))
    if case == "fraction multiplicities":
        assert expected[1][_kac_basis(4, 5)[1]] == F(3, 7) and calls[0]._C == 42
    assert expected[0] == ("residual" if case == "residual" else "coefficients")


def test_exact_decompose_checks_each_leading_exponent(monkeypatch):
    """Coefficients read at leads that are not the characters' h - c/24 leave
    a remainder: exact decompose refuses them."""
    Z = partition_direct(params_from_n(1.0, "dilute"), cutoff=40)
    basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
    true = CharacterSpec.leading_exponent.fget
    monkeypatch.setattr(CharacterSpec, "leading_exponent",
                        property(lambda spec: true(spec) + F(1, 2)))
    with pytest.raises(DecompositionError) as err:
        decompose(Z, basis)
    assert err.value.residual.terms[0].exponent == F(23, 48)
