"""Parameter map: couplings, exponents, degeneracy factors, marginality."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from loopgas import (
    DomainError,
    Phase,
    central_charge_slope_at_zero,
    electric_dimension,
    leg_exponent,
    params_from_n,
    vortex_marginality_check,
    wrap_coefficient,
    wrap_weight,
)

loop_weights = st.floats(min_value=-1.999, max_value=2.0)
phases = st.sampled_from(["dilute", "dense"])


class TestParamsFromN:
    def test_ising_point(self):
        p = params_from_n(1.0, "dilute")
        assert abs(p.chi + math.pi / 3) < 1e-12
        assert abs(p.g - 4 / 3) < 1e-12
        assert abs(p.c - 0.5) < 1e-12
        assert (p.g_exact, p.c_exact, p.m0_exact) == (F(4, 3), F(1, 2), F(-1, 4))

    def test_free_boson_point(self):
        for phase in ("dilute", "dense"):
            p = params_from_n(2.0, phase)
            assert p.chi == 0.0 and p.g == 1.0 and p.c == 1.0
            assert p.g_exact == 1

    def test_exact_fields_are_none_off_the_registry(self):
        p = params_from_n(0.7, "dilute")
        assert (p.g_exact, p.c_exact, p.m0_exact) == (None, None, None)

    def test_dense_polymer_point(self):
        p = params_from_n(0.0, "dense")
        assert abs(p.chi - math.pi / 2) < 1e-12
        assert abs(p.g - 0.5) < 1e-12
        assert abs(p.c + 2.0) < 1e-12

    def test_exact_registry_couplings(self):
        expected = {
            (0.0, "dilute"): F(3, 2),
            (1.0, "dilute"): F(4, 3),
            (2.0, "dilute"): F(1),
            (math.sqrt(3.0), "dense"): F(5, 6),
            (1.0, "dense"): F(2, 3),
            (0.0, "dense"): F(1, 2),
        }
        for (n, phase), g in expected.items():
            assert params_from_n(n, phase).g_exact == g

    def test_generic_point_has_no_exact_coupling(self):
        assert params_from_n(1.5, "dilute").g_exact is None

    @pytest.mark.parametrize("bad", [-2.0, -2.5, 2.0000001, 17.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            params_from_n(bad, "dilute")

    def test_unknown_phase(self):
        with pytest.raises(DomainError):
            params_from_n(1.0, "sparse")

    @settings(max_examples=80, deadline=None)
    @given(loop_weights, phases)
    @example(1.9999999999999, "dense")  # 1e-13 from n = 2, where g is 1e-7 from 1
    def test_defining_relations(self, n, phase):
        p = params_from_n(n, phase)
        assert abs(p.n - 2.0 * math.cos(p.chi)) < 1e-12
        assert abs(p.g - (1.0 - p.chi / math.pi)) < 1e-12
        assert abs(p.m0 - (1.0 - p.g) / p.g) < 1e-12
        assert abs(p.c - (1.0 - 6.0 * (p.chi / math.pi) ** 2 / p.g)) < 1e-12
        assert p.g_exact is None or abs(p.g - p.g_exact) < 1e-11

    @settings(max_examples=60, deadline=None)
    @given(loop_weights)
    def test_branch_couplings(self, n):
        a = math.acos(n / 2.0) / math.pi
        assert abs(params_from_n(n, "dilute").g - (1.0 + a)) < 1e-12
        assert abs(params_from_n(n, "dense").g - (1.0 - a)) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_phase_coupling_ranges_for_nonnegative_n(self, n):
        assert 1.0 <= params_from_n(n, "dilute").g <= 2.0
        assert 0.5 <= params_from_n(n, "dense").g <= 1.0


class TestElectricDimension:
    def test_marginal_charge_identically_two(self):
        for n in (1.0, 0.3, -1.2, 1.9999):
            for phase in ("dilute", "dense"):
                p = params_from_n(n, phase)
                assert abs(electric_dimension(p, -2.0) - 2.0) < 1e-12

    def test_zero_charge(self):
        p = params_from_n(0.7, "dense")
        assert electric_dimension(p, 0.0) == 0.0

    def test_dense_ising_charge_one(self):
        p = params_from_n(1.0, "dense")
        assert abs(electric_dimension(p, 1.0) - 1.25) < 1e-12
        assert abs(electric_dimension(p, -1.0) - 0.25) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(loop_weights, phases, st.floats(min_value=0.1, max_value=3.0))
    def test_charge_asymmetry(self, n, phase, e):
        p = params_from_n(n, phase)
        if abs(p.chi) > 1e-3:
            x_plus = electric_dimension(p, e)
            x_minus = electric_dimension(p, -e)
            assert abs(x_plus - x_minus) > 1e-12


class TestLegExponent:
    def test_potts3_single_leg(self):
        p = params_from_n(math.sqrt(3.0), "dense")
        assert abs(leg_exponent(p, 1) - 0.125) < 1e-12

    def test_zero_legs(self):
        assert leg_exponent(params_from_n(1.3, "dilute"), 0) == 0.0

    def test_dense_ising_single_leg_vanishes(self):
        assert abs(leg_exponent(params_from_n(1.0, "dense"), 1)) < 1e-15


class TestWrapCoefficient:
    def test_low_orders_polynomial(self):
        n = F(7, 5)
        assert wrap_coefficient(0, n) == 1
        assert wrap_coefficient(1, n) == n
        assert wrap_coefficient(2, n) == n * n - 1
        assert wrap_coefficient(3, n) == n**3 - 2 * n

    def test_chebyshev_sine_identity(self):
        for theta in (0.3, 1.1, 2.0, 2.9):
            n = 2.0 * math.cos(theta)
            for p in range(33):
                lhs = wrap_coefficient(p, n) * math.sin(theta)
                assert abs(lhs - math.sin((p + 1) * theta)) < 1e-10

    def test_boundary_values(self):
        for p in range(10):
            assert wrap_coefficient(p, 2) == p + 1
            assert wrap_coefficient(p, -2) == (p + 1) * (-1) ** p

    def test_integer_polynomial_coefficients(self):
        # integer-coefficient polynomial: integer at integers, and at n'=1/2
        # the denominator divides 2^p
        for p in range(17):
            assert wrap_coefficient(p, F(5)).denominator == 1
            assert 2**p % wrap_coefficient(p, F(1, 2)).denominator == 0

    def test_domain(self):
        with pytest.raises(DomainError):
            wrap_coefficient(-1, 1.0)


class TestMarginality:
    def test_exact_points(self):
        assert abs(vortex_marginality_check(params_from_n(1.0, "dilute")) - 1) < 1e-15
        assert abs(vortex_marginality_check(params_from_n(0.0, "dense")) - 1) < 1e-15

    def test_arbitrary_point(self):
        assert abs(vortex_marginality_check(params_from_n(1.37, "dilute")) - 1) < 1e-12

    @settings(max_examples=80, deadline=None)
    @given(loop_weights, phases)
    def test_everywhere(self, n, phase):
        assert abs(vortex_marginality_check(params_from_n(n, phase)) - 1.0) < 1e-12


class TestWrapWeight:
    def test_sign_follows_phase(self):
        assert wrap_weight("dilute", 0.0).chi_prime == -math.pi / 2
        assert wrap_weight("dense", 0.0).chi_prime == math.pi / 2

    def test_defining_relation(self):
        w = wrap_weight("dense", 1.2)
        assert abs(w.n_prime - 2.0 * math.cos(w.chi_prime)) < 1e-12

    def test_exactness_attachments(self):
        w = wrap_weight("dense", math.sqrt(3.0))
        assert w.n_prime_exact is None and w.n_prime_sq_exact == 3
        assert wrap_weight("dilute", -2.0).n_prime_exact == -2

    def test_domain(self):
        with pytest.raises(DomainError):
            wrap_weight("dilute", 2.5)


class TestCentralChargeSlope:
    def test_against_finite_difference(self):
        h = 1e-6
        for phase in ("dilute", "dense"):
            fd = (
                params_from_n(h, phase).c - params_from_n(-h, phase).c
            ) / (2.0 * h)
            assert abs(fd - central_charge_slope_at_zero(phase)) < 1e-7

    def test_values(self):
        assert abs(central_charge_slope_at_zero(Phase.DILUTE) - 5 / (3 * math.pi)) < 1e-15
        assert abs(central_charge_slope_at_zero(Phase.DENSE) - 9 / math.pi) < 1e-15
