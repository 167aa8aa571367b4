"""Crossing probability, wrapping loops, logarithmic sector, asymptote fits."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction as F

import pytest

from loopgas import (
    Backend,
    DomainError,
    TailBoundError,
    asymptote_fit,
    central_charge_slope_at_zero,
    crossing_probability,
    duality_check,
    euler_inverse,
    log_chain_scale,
    log_partition,
    log_partition_exact_core,
    max_abs_coeff_diff,
    params_from_n,
    partition_direct,
    saw_loop_dense,
    saw_loop_derivative_series,
    saw_loop_dilute,
    wrap_count_generating,
    wrap_weight,
)
from loopgas import qseries
from loopgas.annulus import partition_crossed

import series_oracle as oracle
from eta_oracle import (ETA_PRODUCTS, _exponents, _factor, _machin_pi, _pentagonal,
                        _times_sparse, eta_channel_values)

ORACLE_ORDERS = (40, 256)


def qt_to_q(qt: float) -> float:
    return math.exp(2.0 * math.pi**2 / math.log(qt))


class TestCrossingProbability:
    def test_leading_terms(self):
        P = crossing_probability(3)
        assert P.terms[0] == (0, 1)
        assert P.terms[1] == (F(1, 3), -1)
        assert P.coefficient(1) == 0  # euler q and bracket -q cancel

    def test_equals_zero_wrap_weight_partition(self):
        perc = params_from_n(1.0, "dense")
        for k in ORACLE_ORDERS:
            P = crossing_probability(k)
            assert P == oracle.crossing(k)
            assert P == wrap_count_generating(perc, 0.0, k)

    @pytest.mark.parametrize("backend", list(Backend))
    def test_infinite_cutoff_is_a_domain_error(self, backend):
        # the floating flux walk would otherwise never reach the cutoff
        with pytest.raises(DomainError, match="finite"):
            crossing_probability(math.inf, backend)

    @pytest.mark.parametrize("backend", list(Backend))
    @pytest.mark.parametrize("cutoff", [0, -1, F(-1, 3)])
    def test_cutoff_at_or_below_zero_is_a_domain_error(self, cutoff, backend):
        # the series starts at q^0, so such a cutoff leaves nothing, as for any Z
        with pytest.raises(DomainError, match="excludes the p=0 identity term"):
            crossing_probability(cutoff, backend)

    def test_value_at_half(self):
        v, tail = crossing_probability(64).eval_at(0.5)
        assert 0.0 < v < 1.0 and tail < 1e-12
        assert abs(v - 0.06305863810032862) < 1e-14  # frozen regression value

    def test_bounds_and_monotone_decreasing_in_q(self):
        # crossing gets harder as the tube gets longer: P falls with q
        # (equivalently rises with qtilde).  Past q ~ 0.6 the direct series
        # cancels catastrophically in floats, so the crossed channel takes
        # over; the two agree where both converge.
        P = crossing_probability(64)
        perc = params_from_n(1.0, "dense")
        P_crossed = partition_crossed(perc, wrap_weight("dense", 0.0), 64)

        def eval_P(q):
            if q <= 0.6:
                return P.eval_at(q)
            return P_crossed.eval_at(math.exp(2.0 * math.pi**2 / math.log(q)))

        d, dt = P.eval_at(0.6)
        c, ct = P_crossed.eval_at(math.exp(2.0 * math.pi**2 / math.log(0.6)))
        assert abs(d - c) < 1e-10 + dt + ct

        prev = 1.0
        for i in range(1, 20):
            q = 0.05 * i
            v, tail = eval_P(q)
            assert tail < 1e-6
            assert 0.0 <= v <= 1.0
            assert v < prev
            prev = v

    def test_monotone_increasing_in_qtilde(self):
        P = crossing_probability(64)
        vals = [P.eval_at(qt_to_q(qt))[0] for qt in (1e-6, 1e-4, 1e-2)]
        assert vals[0] < vals[1] < vals[2]

    def test_crossed_channel_magnetic_exponent(self):
        P = crossing_probability(64)
        fit = asymptote_fit(lambda qt: P.eval_at(qt_to_q(qt)), (1e-6, 1e-4))
        assert abs(fit.exponent_fit - 5.0 / 48.0) < 0.01 * (5.0 / 48.0)
        assert abs(fit.prefactor_fit - math.sqrt(1.5)) < 0.01 * math.sqrt(1.5)

    def test_direct_channel_one_third_power(self):
        P = crossing_probability(64)
        fit = asymptote_fit(
            lambda q: ((1.0 - P.eval_at(q)[0]), P.eval_at(q)[1]), (1e-6, 1e-4)
        )
        assert abs(fit.exponent_fit - 1.0 / 3.0) < 0.01 / 3.0

    def test_eta_quotient_forms(self):
        # P equals eta(q^{1/3}) eta(q^{4/3}) / (eta(q) eta(q^{2/3})) and, in
        # the crossed modulus, sqrt(3/2) eta(qt^6) eta(qt^{3/2}) /
        # (eta(qt^2) eta(qt^3)); checked numerically against the series,
        # which is the ground truth.
        from loopgas import dedekind_eta_series

        P = crossing_probability(64)
        eta = dedekind_eta_series(80, Backend.FLOAT)
        ev = lambda x: eta.eval_at(x)[0]
        for ratio in (0.8, 1.0, 1.4):
            q = math.exp(-math.pi * ratio)
            qt = math.exp(-2.0 * math.pi / ratio)
            p = P.eval_at(q)[0]
            form_a = ev(q ** (1 / 3)) * ev(q ** (4 / 3)) / (ev(q) * ev(q ** (2 / 3)))
            form_b = (
                math.sqrt(1.5)
                * ev(qt**6) * ev(qt**1.5) / (ev(qt**2) * ev(qt**3))
            )
            assert abs(form_a - p) < 1e-10
            assert abs(form_b - p) < 1e-10


def _crossing_reference(q: float):
    """P(q) to 50 digits from the S-transformed eta product, a product of positive
    factors: sqrt(3/2) qt^{5/48} prod (1-qt^{6k})(1-qt^{3k/2}) / ((1-qt^{3k})(1-qt^{2k}))
    with ln q ln qt = 2 pi^2, q taken as its exact binary value."""
    with localcontext() as ctx:
        ctx.prec = 60
        lnqt = 2 * _machin_pi() ** 2 / Decimal(q).ln()
        power = lambda a: (a * lnqt).exp()
        value, k = Decimal(3 / 2).sqrt() * power(Decimal(5) / 48), 1
        while power(Decimal(3 * k) / 2) > Decimal(10) ** -60:
            value *= ((1 - power(6 * k)) * (1 - power(Decimal(3 * k) / 2))
                      / ((1 - power(3 * k)) * (1 - power(2 * k))))
            k += 1
        return value


class TestCrossingEtaProduct:
    """With x = q^{1/3}, P = E(x) E(x^4) / (E(x^2) E(x^3)) for Euler's E(x) = prod(1 - x^k)."""

    def test_series_is_the_eta_product_exactly(self):
        # P E(x^2) E(x^3) == E(x) E(x^4) coefficient by coefficient below x^3072,
        # each product by a sparse pentagonal series
        top, P = 3 * 1024, crossing_probability(1024)
        dense = [0] * top
        for e, c in P:
            assert (3 * e).denominator == 1 and c.denominator == 1
            dense[int(3 * e)] = int(c)
        lhs = _times_sparse(_times_sparse(dense, _pentagonal(top, 2)), _pentagonal(top, 3))
        e1 = [0] * top
        for e, s in _pentagonal(top, 1).items():
            e1[e] = s
        assert lhs == _times_sparse(e1, _pentagonal(top, 4))

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_value_is_the_crossed_product(self, q):
        value, _ = crossing_probability(1024).eval_at(q)
        ref = _crossing_reference(q)
        assert abs(value - float(ref)) <= 1e-14 * float(ref)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the direct series cancels as "
                       "q -> 1; its value there needs the crossed channel")
    @pytest.mark.parametrize("q", [0.9, 0.95])
    def test_value_near_one_is_the_crossed_product(self, q):
        value, _ = crossing_probability(1024).eval_at(q)
        ref = _crossing_reference(q)
        assert abs(value - float(ref)) <= 1e-14 * float(ref)


def _saw_dilute_reference(q: float):
    """Z1(q) of the single wrapping SAW, n = 0 dilute, to 50 digits from the crossed
    channel's n'-derivative (g = 3/2, chi = chi' = -pi/2, c = 0), q taken as its exact
    binary value:

        Z1 = -1/(2 sin chi') sum_m [w'_m + w_m u_m ln qt/(pi^2 g)] qt^{f_m} / prod(1 - qt^{2r})

    with u_m = chi' + 2 pi m, w_m = sqrt(2/g) sin(u_m/g)/sin chi', w'_m = sqrt(2/g)
    cos(u_m/g)/(g sin chi') (cos chi' = 0), f_m = (u_m^2 - chi^2)/(2 pi^2 g) = 2m(2m - 1)/3
    and ln q ln qt = 2 pi^2.  u_m/g = (4m - 1) pi/3, so each sine and cosine is exact."""
    with localcontext() as ctx:
        ctx.prec = 60
        pi = _machin_pi()
        lnqt = 2 * pi ** 2 / Decimal(q).ln()
        g, half, root = Decimal(3) / 2, Decimal(3).sqrt() / 2, (Decimal(4) / 3).sqrt()
        # sin and cos of j pi/3 by j mod 6
        sin = (0, half, half, 0, -half, -half)
        cos = (1, Decimal(0.5), Decimal(-0.5), -1, Decimal(-0.5), Decimal(0.5))
        total, k, eps = Decimal(0), 0, Decimal(10) ** -70
        while True:
            # m = 0, 1, -1, 2, -2, ...: f_m increases, so the terms stop together
            m = (k + 1) // 2 if k % 2 else -(k // 2)
            power = (2 * m * (2 * m - 1) * lnqt / 3).exp()
            if power < eps:
                break
            j, u = (4 * m - 1) % 6, 2 * pi * m - pi / 2
            total += (-root * cos[j] / g - root * sin[j] * u * lnqt / (pi ** 2 * g)) * power
            k += 1
        r, product = 1, Decimal(1)
        while (2 * r * lnqt).exp() > eps:
            product *= 1 - (2 * r * lnqt).exp()
            r += 1
        return total / (2 * product)


def _decimal_value(series, q: float):
    """The exact series summed at q, its exact binary value, to 60 digits in decimal."""
    with localcontext() as ctx:
        ctx.prec = 60
        lnq = Decimal(q).ln()
        return sum(Decimal(c.numerator) / c.denominator
                   * (Decimal(e.numerator) * lnq / e.denominator).exp() for e, c in series)


class TestDiluteSawCrossedDerivative:
    """saw_loop_dilute against its 50-digit crossed-channel reference (ROADMAP item 9)."""

    @pytest.mark.parametrize("q", [0.1, 0.3, 0.5])
    def test_series_sums_to_the_crossed_derivative(self, q):
        value, ref = _decimal_value(saw_loop_dilute(1024), q), _saw_dilute_reference(q)
        assert abs(value - ref) <= abs(ref) * Decimal(10) ** -30

    def test_reference_near_one(self):
        # the float evaluation of the same formula reads 20.2234261705 at q = 0.95
        assert abs(_saw_dilute_reference(0.95) - Decimal("20.2234261705")) < 1e-10

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 7: the direct series cancels as "
                       "q -> 1 (5.82e8 printed at q = 0.95); its value there needs the "
                       "crossed channel")
    def test_series_near_one_sums_to_the_crossed_derivative(self):
        value, ref = _decimal_value(saw_loop_dilute(1024), 0.95), _saw_dilute_reference(0.95)
        assert abs(value - ref) <= abs(ref) * Decimal(10) ** -30


@pytest.mark.parametrize("n,phase,n_prime,m,a,sign,exponents", [p[1:] for p in ETA_PRODUCTS],
                         ids=[p[0] for p in ETA_PRODUCTS])
def test_registry_series_is_the_eta_product_exactly(n, phase, n_prime, m, a, sign, exponents):
    # Z = sign q^a prod_k (1 - x^k)^{e_k} coefficient by coefficient below x^{1024 m}:
    # sign q^{-a} Z, factored one k at a time, gives the table's e_k for every k < 1024 m
    w = None if n_prime is None else wrap_weight(phase, n_prime)
    top, Z = m * 1024, partition_direct(params_from_n(n, phase), w, 1024)
    assert Z.min_exponent == a
    dense = [0] * top
    for e, c in Z:
        k = m * (e - a)
        assert k.denominator == 1 and c.denominator == 1
        if k < top:
            dense[int(k)] = sign * int(c)
    assert _factor(dense) == _exponents(exponents, top)


ETA_R_D = [p for p in ETA_PRODUCTS if isinstance(p[-1], dict)]


@pytest.mark.parametrize("n,phase,n_prime,m,a,sign,r", [p[1:] for p in ETA_R_D],
                         ids=[p[0] for p in ETA_R_D])
def test_registry_values_are_the_eta_product_in_both_channels(n, phase, n_prime, m, a, sign, r):
    # duality_check's two values against the product and its S-transform in
    # decimal, which agree with each other to the context's 40 digits
    assert a == sum(F(rd * d, 24 * m) for d, rd in r.items())
    w = None if n_prime is None else wrap_weight(phase, n_prime)
    for ratio in (0.5, 1.0, 2.0):
        ev = duality_check(params_from_n(n, phase), w, ratio, 64)
        with localcontext() as ctx:
            ctx.prec = 40
            direct, crossed = eta_channel_values(m, sign, r, ratio)
            assert abs(direct - crossed) <= abs(direct) * Decimal(10) ** -36
            assert abs(Decimal(ev.direct_value) - direct) <= abs(direct) * Decimal(2e-15)
            assert abs(Decimal(ev.crossed_value) - crossed) <= abs(crossed) * Decimal(2e-15)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 6: tail_bound_direct (1.6e-59) leaves "
                   "out the summation rounding (the value is 1.7e-16 off)")
def test_registry_direct_value_is_within_its_tail_bound():
    ev = duality_check(params_from_n(-1.0, "dense"), wrap_weight("dense", 0.0), 0.2, 256)
    with localcontext() as ctx:
        ctx.prec = 40
        direct, _ = eta_channel_values(3, -1, {1: 2, 2: -1, 3: -1}, 0.2)
        assert abs(Decimal(ev.direct_value) - direct) <= Decimal(ev.tail_bounds[0])


class TestWrapCountGenerating:
    def test_native_weight_is_partition_function(self):
        ising = params_from_n(1.0, "dilute")
        assert wrap_count_generating(ising, 1.0, 30) == partition_direct(ising, cutoff=30)

    def test_unit_weight_even_sector_is_one(self):
        from loopgas import partition_direct_parity

        perc = params_from_n(1.0, "dense")
        z = partition_direct_parity(perc, wrap_weight("dense", 1.0), 30, "even")
        assert z.terms == ((0, 1),)

    def test_domain(self):
        with pytest.raises(DomainError):
            wrap_count_generating(params_from_n(1.0, "dense"), 2.5, 20)


class TestSawDilute:
    def test_leading_term(self):
        s = saw_loop_dilute(5)
        assert s.terms[0] == (F(5, 8), 1)

    def test_equals_termwise_derivative(self):
        for k in ORACLE_ORDERS:
            expected = oracle.saw_dilute(k)
            assert saw_loop_dilute(k) == expected
            assert saw_loop_derivative_series("dilute", k) == expected
            assert saw_loop_derivative_series("dense", k) == oracle.saw_dense(k)

    def test_finite_difference_oracle(self):
        s = saw_loop_dilute(64)
        h = 1e-5
        for q in (0.2, 0.4):
            plus = partition_direct(
                params_from_n(0.0, "dilute"),
                wrap_weight("dilute", h),
                64,
                Backend.FLOAT,
            ).eval_at(q)[0]
            minus = partition_direct(
                params_from_n(0.0, "dilute"),
                wrap_weight("dilute", -h),
                64,
                Backend.FLOAT,
            ).eval_at(q)[0]
            fd = (plus - minus) / (2.0 * h)
            assert abs(fd - s.eval_at(q)[0]) < 1e-8

    def test_direct_channel_slope(self):
        s = saw_loop_dilute(64)
        fit = asymptote_fit(lambda q: s.eval_at(q), (1e-6, 1e-4))
        assert abs(fit.exponent_fit - 0.625) < 0.01 * 0.625

    def test_log_asymptote_with_constant(self):
        # Z1(qtilde) -> |ln qtilde|/(6 pi) - 1/(3 sqrt 3) + O(qtilde^{2/3});
        # the constant comes from the prefactor derivative in the crossed
        # channel and is why Z1/[(1/6 pi)|ln qtilde|] approaches 1 only
        # logarithmically slowly.
        s = saw_loop_dilute(64)
        qt = 1e-8
        v = s.eval_at(qt_to_q(qt))[0]
        expected = abs(math.log(qt)) / (6.0 * math.pi) - 1.0 / (3.0 * math.sqrt(3.0))
        assert abs(v - expected) < 1e-3

    def test_log_asymptote_constant_from_crossed_finite_difference(self):
        # same constant extracted from d/dn' of the crossed channel at tiny
        # qtilde, where direct-channel evaluation is no longer convergent
        h = 1e-6
        qt = 1e-40
        dilute0 = params_from_n(0.0, "dilute")
        plus = partition_crossed(dilute0, wrap_weight("dilute", h), 32).eval_at(qt)[0]
        minus = partition_crossed(dilute0, wrap_weight("dilute", -h), 32).eval_at(qt)[0]
        fd = (plus - minus) / (2.0 * h)
        expected = abs(math.log(qt)) / (6.0 * math.pi) - 1.0 / (3.0 * math.sqrt(3.0))
        assert abs(fd - expected) < 1e-4


#: cutoffs at and around the edges of the dense loop's support: none or one term,
#: a cutoff on a slot, a float whose exact value lies just above a slot
SAW_DENSE_EDGES = (-1, 0, F(-1, 24), F(1, 48), F(7, 3), 0.9583333333333334, 12.25)


class TestSawDense:
    def test_two_forms_agree_exactly(self):
        for k in ORACLE_ORDERS + (1024,) + SAW_DENSE_EDGES:
            series, closed = saw_loop_dense(k)
            assert series == closed == oracle.saw_dense(k), k

    def test_float_backend_matches_exact(self):
        exact = saw_loop_dense(64)
        floating = saw_loop_dense(64, Backend.FLOAT)
        for f, e in zip(floating, exact):
            assert f.backend is Backend.FLOAT
            assert max_abs_coeff_diff(f, e) < 1e-9

    @pytest.mark.parametrize("order", [279, 300, 1024])
    def test_float_backend_is_the_rounded_exact_pair(self, order):
        # from order 279 the coefficients pass 2^53, where only an exact
        # comparison of the two halves tells rounding from a failed identity
        exact = saw_loop_dense(order)
        floating = saw_loop_dense(order, Backend.FLOAT)
        for f, e in zip(floating, exact):
            assert f.backend is Backend.FLOAT and f.cutoff == float(e.cutoff)
            assert f.terms == tuple((float(x), float(c)) for x, c in e.terms)

    @pytest.mark.parametrize("backend", [Backend.EXACT, Backend.FLOAT])
    def test_completes_once(self, monkeypatch, backend):
        # both halves are the dense phase of the one Z1 builder: one theta,
        # completed once
        kernel, calls = qseries._euler_kernel, []

        def counted(theta, step=1):
            calls.append(step)
            return kernel(theta, step)

        monkeypatch.setattr(qseries, "_euler_kernel", counted)  # looked up by `_complete`
        series, closed = saw_loop_dense(64, backend)
        assert calls == [1] and series == closed and series.backend is backend

    def test_closed_form_is_the_expanded_product(self):
        # at order 1500 the product's coefficients pass 2^127
        for order in [*range(5, 257), 1024, 1500, *SAW_DENSE_EDGES]:
            assert saw_loop_dense(order)[1] == oracle.saw_dense_closed(order), order

    def test_leading_and_second_closed_terms(self):
        _, closed = saw_loop_dense(5)
        assert closed.terms[0] == (-F(1, 24), 1)
        assert closed.terms[1] == (-F(1, 24) + F(1, 2), -2)

    def test_finite_difference_oracle(self):
        s = saw_loop_dense(64)[0]
        h = 1e-5
        q = 0.3
        plus = partition_direct(
            params_from_n(0.0, "dense"), wrap_weight("dense", h), 64, Backend.FLOAT
        ).eval_at(q)[0]
        minus = partition_direct(
            params_from_n(0.0, "dense"), wrap_weight("dense", -h), 64, Backend.FLOAT
        ).eval_at(q)[0]
        assert abs((plus - minus) / (2.0 * h) - s.eval_at(q)[0]) < 1e-8


class TestLogPartition:
    def test_regrouped_and_direct_forms_agree(self):
        for phase in ("dilute", "dense"):
            for k in ORACLE_ORDERS:
                a = log_partition_exact_core(phase, k, regrouped=True)
                b = log_partition_exact_core(phase, k, regrouped=False)
                assert a == b == oracle.log_core(phase, k, regrouped=True)
                assert b == oracle.log_core(phase, k, regrouped=False)

    def test_dilute_lowest_pair(self):
        # k = -1 contributes +(q^5 - q^2) before the euler factor
        core = log_partition_exact_core("dilute", 10)
        assert core.terms[0] == (2, -1)
        bare = log_partition_exact_core("dilute", 3)
        assert bare.coefficient(2) == -1

    def test_dense_head_terms(self):
        # bracket -1 + 3q - 5q^3 + ... times q^{1/12} and the euler factor
        core = log_partition_exact_core("dense", 30)
        assert core.terms[0] == (F(1, 12), -1)
        assert core.coefficient(1 + F(1, 12)) == 2  # 3*p(0) - 1*p(1)

    def test_dense_subdominant_to_wrapping(self):
        core = log_partition_exact_core("dense", 30)
        assert core.min_exponent > -F(1, 24)

    def test_chain_scales(self):
        assert log_chain_scale("dilute") == -1.0 / math.pi
        assert log_chain_scale("dense") == 1.0 / math.pi

    @pytest.mark.parametrize("phase", ["dilute", "dense"])
    @pytest.mark.parametrize("q", [0.1, 0.3])
    def test_full_derivative_consistency(self, phase, q):
        h = 1e-5
        def Z(n):
            return partition_direct(
                params_from_n(n, phase), None, 64, Backend.FLOAT
            ).eval_at(q)[0]
        fd = (Z(h) - Z(-h)) / (2.0 * h)
        z1 = (
            saw_loop_dilute(64) if phase == "dilute" else saw_loop_dense(64)[0]
        ).eval_at(q)[0]
        z0 = partition_direct(params_from_n(0.0, phase), cutoff=64).eval_at(q)[0]
        cprime = central_charge_slope_at_zero(phase)
        logv = log_partition(phase, 64).eval_at(q)[0]
        analytic = z1 - (cprime / 24.0) * math.log(q) * z0 + math.log(q) * logv
        assert abs(fd - analytic) < 1e-6


class TestAsymptoteFit:
    def test_constant_series_zero_slope(self):
        z = partition_direct(params_from_n(1.0, "dense"), cutoff=30, backend=Backend.FLOAT)
        fit = asymptote_fit(lambda q: z.eval_at(q), (1e-4, 1e-2))
        assert abs(fit.exponent_fit) < 1e-10
        assert abs(fit.prefactor_fit - 2.0) < 1e-10

    def test_recovers_exact_power_law(self):
        fit = asymptote_fit(lambda x: (2.5 * x**0.625, 0.0), (1e-6, 1e-2))
        assert abs(fit.exponent_fit - 0.625) < 1e-12
        assert abs(fit.prefactor_fit - 2.5) < 1e-11
        assert fit.residual < 1e-12

    def test_refuses_on_large_tail(self):
        s = euler_inverse(12, Backend.FLOAT)
        with pytest.raises(TailBoundError):
            asymptote_fit(lambda q: s.eval_at(q), (0.5, 0.9))

    def test_window_validation(self):
        s = euler_inverse(40, Backend.FLOAT)
        with pytest.raises(DomainError):
            asymptote_fit(lambda q: s.eval_at(q), (0.2, 0.1))
        with pytest.raises(DomainError):
            asymptote_fit(lambda q: s.eval_at(q), (1e-4, 1e-2), npoints=5)

    @pytest.mark.parametrize("window", [(math.nan, 0.5), (0.1, math.inf), (F(1, 2), 0.1)])
    def test_a_float_window_out_of_range_keeps_the_range_message(self, window):
        with pytest.raises(DomainError, match="must satisfy 0 < lo < hi < 1"):
            asymptote_fit(lambda x: (1.0, 0.0), window)
