"""Zeta-regularized strip energies against the smooth-cutoff regulator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopgas import (
    BoundaryCoupling,
    DomainError,
    c_effective,
    e0_zeta,
    e1_cutoff,
    e1_zeta,
)

EPS = [0.01, 0.005, 0.0025]


class TestE0:
    def test_unit_width(self):
        assert e0_zeta(1.0) == -math.pi / 24.0

    def test_inverse_width_scaling(self):
        assert e0_zeta(2.0) == -math.pi / 48.0
        for L in (0.3, 1.7, 9.0):
            assert abs(e0_zeta(L) * L + math.pi / 24.0) < 1e-15

    def test_corresponds_to_unit_central_charge(self):
        L = 2.7
        assert abs(e0_zeta(L) - (-math.pi * 1.0 / (24.0 * L))) < 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            e0_zeta(0.0)

    @pytest.mark.parametrize("L", [math.nan, math.inf, -math.inf])
    def test_non_finite_width_rejected(self, L):
        with pytest.raises(DomainError):
            e0_zeta(L)

    def test_takes_every_width_a_coupling_takes(self):
        # one width rule for both: a numpy int L builds a coupling, and e0_zeta
        # evaluates it as the int it equals
        b = BoundaryCoupling(1.0, 0.1, 0.2, np.int64(2))
        assert e0_zeta(b.L) == e0_zeta(2) == -math.pi / 48.0
        assert e1_zeta(b) == e1_zeta(BoundaryCoupling(1.0, 0.1, 0.2, 2))

    def test_refuses_every_width_a_coupling_refuses(self):
        # a bool is no width: refused as L by both
        with pytest.raises(DomainError, match="unsupported strip width L type bool"):
            e0_zeta(True)
        with pytest.raises(DomainError, match="must be real numbers"):
            BoundaryCoupling(1.0, 0.1, 0.2, True)


class TestE1Zeta:
    def test_antisymmetric_couplings_vanish(self):
        assert e1_zeta(BoundaryCoupling(1.3, 0.4, -0.4)) == 0.0

    def test_direct_substitution(self):
        assert abs(e1_zeta(BoundaryCoupling(1.0, 0.5, 0.5)) - math.pi) < 1e-15


class TestE1Cutoff:
    def test_antisymmetric_finite_part_zero(self):
        fin, _ = e1_cutoff(BoundaryCoupling(0.8, 0.6, -0.6), EPS)
        assert abs(fin) < 1e-6

    def test_example_point(self):
        b = BoundaryCoupling(1.5, 0.3, 0.1)
        fin, _ = e1_cutoff(b, EPS)
        assert abs(fin - math.pi * 0.16 / 1.5) < 1e-6

    def test_divergent_coefficient(self):
        b = BoundaryCoupling(0.7, 0.45, -0.2, L=1.3)
        _, div = e1_cutoff(b, EPS)
        expected = -(math.pi / (b.g * b.L)) * (
            (b.alpha1 - b.alpha2) ** 2 + (b.alpha1 + b.alpha2) ** 2
        )
        assert abs(div - expected) < 1e-6

    def test_matches_zeta_on_grid(self):
        for g in (0.5, 1.0, 1.5):
            for i in range(5):
                for j in range(5):
                    a1, a2 = -1.0 + 0.5 * i, -1.0 + 0.5 * j
                    b = BoundaryCoupling(g, a1, a2)
                    fin, _ = e1_cutoff(b, EPS)
                    assert abs(fin - e1_zeta(b)) < 1e-6

    @pytest.mark.parametrize(
        "eps", [[0.01], [0.01, 0.005], [0.01, 0.01, 0.005], [0.2, 0.1, 0.05]]
    )
    def test_bad_epsilon_lists(self, eps):
        with pytest.raises(DomainError):
            e1_cutoff(BoundaryCoupling(1.0, 0.1, 0.2), eps)

    @pytest.mark.parametrize("fit_tol", [math.nan, 0.0, -1e-9])
    def test_fit_tolerance_must_be_positive(self, fit_tol):
        with pytest.raises(DomainError):
            e1_cutoff(BoundaryCoupling(1.0, 0.1, 0.2), EPS, fit_tol=fit_tol)


class TestCEffective:
    def test_no_shift_for_antisymmetric(self):
        assert c_effective(BoundaryCoupling(0.9, 0.25, -0.25)) == 1.0

    def test_direct_substitution(self):
        assert abs(c_effective(BoundaryCoupling(1.0, 0.25, 0.25)) + 5.0) < 1e-15

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_real_couplings_only_lower_c(self, g, a1, a2):
        assert c_effective(BoundaryCoupling(g, a1, a2)) <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-0.5, max_value=0.5),
    )
    def test_depends_only_on_symmetric_combination(self, g, a1, a2, t):
        base = c_effective(BoundaryCoupling(g, a1, a2))
        assert c_effective(BoundaryCoupling(g, a2, a1)) == base
        assert abs(c_effective(BoundaryCoupling(g, a1 + t, a2 - t)) - base) < 1e-10

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=0.1, max_value=5.0),
    )
    def test_total_energy_identity(self, g, a1, a2, L):
        b = BoundaryCoupling(g, a1, a2, L)
        total = e0_zeta(L) + e1_zeta(b)
        assert abs(total + math.pi * c_effective(b) / (24.0 * L)) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            BoundaryCoupling(-1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            BoundaryCoupling(1.0, 0.0, 0.0, L=0.0)

    @pytest.mark.parametrize("field", ["g", "alpha1", "alpha2", "L"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_fields_rejected(self, field, value):
        fields = {"g": 1.5, "alpha1": 0.3, "alpha2": 0.1, "L": 1.0, field: value}
        with pytest.raises(DomainError):
            BoundaryCoupling(**fields)
