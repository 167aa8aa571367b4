"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.

Every criterion must pass.  Criteria 4a and 6c were first stated with
clauses that the exact computation disproves; each test now checks its
criterion's subject against the closed forms the formulae give, and prints
the original stated value beside the checked one:

* 4a stated that the un-subtracted (naive) form has leading crossed power
  -1/12.  Its Poisson resummation keeps the m = 0 Gaussian with coefficient
  1, so the power is -c/12, as in the subtracted form; -1/12 belongs to
  chi' = 0 (free boson).  4a now checks the power -c/12 and the prefactor
  (2/g)^{1/2}, and that the prefactor misses the b_0^2 that 4b's subtracted
  form reaches.
* 6c stated that Z1 / [(1/6 pi)|ln qtilde|] lies in [0.97, 1.03] at
  qtilde = 1e-8.  The crossed expansion is
  Z1 = |ln qtilde|/(6 pi) - 1/(3 sqrt 3) + O(qtilde^{2/3}), so that ratio is
  ~0.803 there and enters the window only below qtilde ~ 1e-79.  6c now
  checks the constant-corrected ratio, the log slope 1/(6 pi), and that the
  bare ratio rises toward 1.
"""

import math
import random
from fractions import Fraction as F

import series_oracle as oracle

from loopgas import (
    Backend,
    BoundaryCoupling,
    CharacterSpec,
    GenSeries,
    asymptote_fit,
    boundary_g_factor,
    c_effective,
    central_charge_slope_at_zero,
    crossing_probability,
    decompose,
    duality_check,
    e0_zeta,
    e1_cutoff,
    e1_zeta,
    electric_dimension,
    log_partition,
    params_from_n,
    partition_direct,
    partition_direct_parity,
    partition_naive,
    saw_loop_dense,
    saw_loop_derivative_series,
    saw_loop_dilute,
    vortex_marginality_check,
    wrap_coefficient,
)

EXACT_POINTS = [
    ("n=0 dilute", params_from_n(0.0, "dilute")),
    ("n=1 dilute", params_from_n(1.0, "dilute")),
    ("n=2", params_from_n(2.0, "dilute")),
    ("Q=3 dense", params_from_n(math.sqrt(3.0), "dense")),
    ("n=1 dense", params_from_n(1.0, "dense")),
    ("n=0 dense", params_from_n(0.0, "dense")),
]


def report(num: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"ACCEPTANCE {num}: {status} - {label}{suffix}")
    assert ok, f"criterion {num}: {label}{suffix}"


def qt_to_q(qt: float) -> float:
    return math.exp(2.0 * math.pi**2 / math.log(qt))


def test_criterion_01_exact_special_cases():
    one = GenSeries.constant(1, 40)
    ok = (
        partition_direct(params_from_n(0.0, "dilute"), cutoff=40) == one
        and partition_direct(params_from_n(1.0, "dense"), cutoff=40) == one * 2
        and partition_direct(params_from_n(0.0, "dense"), cutoff=40).is_zero
        and partition_direct_parity(params_from_n(1.0, "dense"), cutoff=40, parity="even")
        == one
    )
    report("1", "exact series identities Z=1, Z=2, Z=0, Z_even=1 at order 40", ok)


def test_criterion_02_character_decompositions():
    ising_basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
    ising = decompose(
        partition_direct(params_from_n(1.0, "dilute"), cutoff=40), ising_basis
    )
    potts_basis = [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)]
    potts = decompose(
        partition_direct_parity(
            params_from_n(math.sqrt(3.0), "dense"), cutoff=40, parity="even"
        ),
        potts_basis,
    )
    ok = [ising[b] for b in ising_basis] == [1, 1] and [
        potts[b] for b in potts_basis
    ] == [1, 2, 1]
    report("2", "Ising = chi11+chi13 and Q=3 even = chi11+2chi13+chi15", ok)


def test_criterion_03_channel_duality():
    worst = 0.0
    for _, params in EXACT_POINTS:
        for ratio in (0.5, 1.0, 2.0):
            worst = max(worst, duality_check(params, ratio=ratio, cutoff=64).residual)
    ok = worst < 1e-8
    irr = params_from_n(1.5, "dilute")
    worst_irr = max(
        duality_check(irr, ratio=r, cutoff=64).residual for r in (0.5, 1.0, 2.0)
    )
    ok = ok and worst_irr < 1e-6
    report(
        "3",
        "direct/crossed agreement at ratios {0.5,1,2}",
        ok,
        f"worst exact {worst:.2e}, worst n=1.5 {worst_irr:.2e}",
    )


def test_criterion_04a_naive_crossed_power():
    # Stated: the un-subtracted form fits leading qtilde power -1/12 +- 1%.
    # Wrong for the form defined here: completing the square in p gives
    # q^{-c/24 - (1-g)^2/(4g)} = q^{-1/24}, and the m = 0 Gaussian of the
    # Poisson resummation of the cos((p-m0)chi') sum (coefficient
    # cos(0) = 1) adds qtilde^{chi^2/(2 pi^2 g)}, so the leading power is
    # -1/12 + (1-g)^2/(2g) = -c/12, the same as the subtracted form in 4b.
    # -1/12 is the chi' = 0 (free-boson) power.  What the naive form breaks
    # is the prefactor: (2/g)^{1/2} instead of the b_0^2 that 4b reaches.
    params = params_from_n(1.0, "dilute")
    z = partition_naive(params, cutoff=64)
    fit = asymptote_fit(lambda qt: z.eval_at(qt_to_q(qt)), (1e-6, 1e-4))
    stated = -1.0 / 12.0
    target = -params.c / 12.0
    pref = math.sqrt(2.0 / params.g)
    b0sq = boundary_g_factor(params)
    power_ok = abs(fit.exponent_fit - target) < 0.01 * abs(target)
    pref_ok = abs(fit.prefactor_fit - pref) < 0.01 * pref
    differs_ok = abs(fit.prefactor_fit - b0sq) > 0.2
    report(
        "4a",
        "naive form crossed power -c/12 with prefactor (2/g)^{1/2}, not b0^2",
        power_ok and pref_ok and differs_ok,
        f"fitted power {fit.exponent_fit:.6f} vs -c/12 = {target:.6f} "
        f"(stated {stated:.6f}: the chi'=0 power, not this form's); "
        f"prefactor {fit.prefactor_fit:.6f} vs (2/g)^(1/2) = {pref:.6f}, "
        f"b0^2 = {b0sq:.6f}",
    )


def test_criterion_04b_subtracted_crossed_power():
    params = params_from_n(1.0, "dilute")
    z = partition_direct(params, cutoff=64, backend=Backend.FLOAT)
    fit = asymptote_fit(lambda qt: z.eval_at(qt_to_q(qt)), (1e-6, 1e-4))
    target = -params.c / 12.0
    ok = abs(fit.exponent_fit - target) < 0.01 * abs(target)
    report(
        "4b",
        "subtracted form fitted crossed power equals -c/12",
        ok,
        f"fitted {fit.exponent_fit:.6f}, target {target:.6f}",
    )


def test_criterion_05_percolation_asymptotics():
    P = crossing_probability(64)
    crossed = asymptote_fit(lambda qt: P.eval_at(qt_to_q(qt)), (1e-6, 1e-4))
    slope_ok = abs(crossed.exponent_fit - 5 / 48) < 0.01 * (5 / 48)
    pref_ok = abs(crossed.prefactor_fit - math.sqrt(1.5)) < 0.01 * math.sqrt(1.5)
    direct = asymptote_fit(
        lambda q: (1.0 - P.eval_at(q)[0], P.eval_at(q)[1]), (1e-6, 1e-4)
    )
    direct_ok = abs(direct.exponent_fit - 1 / 3) < 0.01 / 3
    report(
        "5",
        "crossing asymptotics 5/48, sqrt(3/2), and 1-P ~ q^{1/3}",
        slope_ok and pref_ok and direct_ok,
        f"slopes {crossed.exponent_fit:.6f}/{direct.exponent_fit:.6f}, "
        f"prefactor {crossed.prefactor_fit:.6f}",
    )


def test_criterion_06a_saw_dilute_exact_series():
    ok = saw_loop_dilute(40) == saw_loop_derivative_series("dilute", 40)
    report("6a", "wrapping-loop series equals termwise derivative at order 40", ok)


def test_criterion_06b_saw_dilute_slope():
    s = saw_loop_dilute(64)
    fit = asymptote_fit(lambda q: s.eval_at(q), (1e-6, 1e-4))
    ok = abs(fit.exponent_fit - 0.625) < 0.01 * 0.625
    report("6b", "wrapping-loop direct slope 5/8", ok, f"fitted {fit.exponent_fit:.6f}")


def test_criterion_06c_saw_dilute_log_ratio_window():
    # Stated: Z1 / [(1/6 pi)|ln qtilde|] in [0.97, 1.03] at qtilde = 1e-8.
    # Wrong: d/dn' of the m = 0 crossed term at n = 0 dilute gives
    # Z1 = |ln qtilde|/(6 pi) - 1/(3 sqrt 3) + O(qtilde^{2/3}), the constant
    # from differentiating sin(chi'/g)/sin(chi'), so that bare ratio is
    # ~0.803 at 1e-8 and enters the window only below qtilde ~ 1e-79, where
    # the order-64 direct series does not converge.  Checked instead: the
    # constant-corrected ratio in the stated window, the log slope 1/(6 pi)
    # to 1%, and the bare ratio rising toward 1.
    s = saw_loop_dilute(64)
    slope = 1.0 / (6.0 * math.pi)
    const = -1.0 / (3.0 * math.sqrt(3.0))
    moduli = (1e-6, 1e-8, 1e-10, 1e-12)
    z1 = {qt: s.eval_at(qt_to_q(qt))[0] for qt in moduli}
    bare = [z1[qt] / (slope * abs(math.log(qt))) for qt in moduli]

    qt = 1e-8
    ratio = z1[qt] / (slope * abs(math.log(qt)) + const)
    ratio_ok = 0.97 <= ratio <= 1.03
    fitted_slope = (z1[1e-10] - z1[1e-8]) / math.log(100.0)
    slope_ok = abs(fitted_slope - slope) < 0.01 * slope
    rising_ok = all(a < b < 1.0 for a, b in zip(bare, bare[1:]))
    report(
        "6c",
        "Z1 over (1/6pi)|ln qtilde| - 1/(3 sqrt3) within 3% at qtilde=1e-8; "
        "log slope 1/(6pi)",
        ratio_ok and slope_ok and rising_ok,
        f"ratio {ratio:.7f}; slope {fitted_slope:.7f} vs 1/(6pi) = {slope:.7f}; "
        f"bare ratio (stated window [0.97, 1.03]) at qtilde 1e-6..1e-12: "
        + ", ".join(f"{b:.4f}" for b in bare)
        + f"; additive constant {z1[qt] - slope * abs(math.log(qt)):.5f} vs "
        f"-1/(3 sqrt3) = {const:.5f}",
    )


def test_criterion_07_saw_dense_two_forms():
    # the product is expanded factor by factor here, not taken from loopgas
    series, closed = saw_loop_dense(40)
    report("7", "dense wrapping-loop theta sum equals product form at order 40",
           series == closed == oracle.saw_dense_closed(40))


def test_criterion_08_logarithmic_sector():
    worst = 0.0
    h = 1e-5
    for phase in ("dilute", "dense"):
        z1_series = (
            saw_loop_dilute(64) if phase == "dilute" else saw_loop_dense(64)[0]
        )
        z0_series = partition_direct(params_from_n(0.0, phase), cutoff=64)
        log_series = log_partition(phase, 64)
        cprime = central_charge_slope_at_zero(phase)
        for q in (0.1, 0.3):
            def Z(n):
                return partition_direct(
                    params_from_n(n, phase), None, 64, Backend.FLOAT
                ).eval_at(q)[0]
            fd = (Z(h) - Z(-h)) / (2.0 * h)
            analytic = (
                z1_series.eval_at(q)[0]
                - (cprime / 24.0) * math.log(q) * z0_series.eval_at(q)[0]
                + math.log(q) * log_series.eval_at(q)[0]
            )
            worst = max(worst, abs(fd - analytic))
    ok = worst < 1e-6
    report("8", "dZ/dn at n=0 equals three-contribution decomposition", ok,
           f"worst |fd - analytic| = {worst:.2e}")


def test_criterion_09_boundary_energies():
    eps = [0.01, 0.005, 0.0025]
    worst = 0.0
    for g in (0.5, 1.0, 1.5):
        for i in range(5):
            for j in range(5):
                b = BoundaryCoupling(g, -1.0 + 0.5 * i, -1.0 + 0.5 * j)
                fin, _ = e1_cutoff(b, eps)
                worst = max(worst, abs(fin - e1_zeta(b)))
    grid_ok = worst < 1e-6
    ident_ok = all(
        abs(e0_zeta(L) + e1_zeta(b) + math.pi * c_effective(b) / (24.0 * L)) < 1e-12
        for L in (0.5, 1.0, 2.0)
        for b in (BoundaryCoupling(1.3, 0.4, 0.2, L), BoundaryCoupling(0.7, -0.3, 0.9, L))
    )
    anti = BoundaryCoupling(0.9, 0.37, -0.37)
    anti_ok = e1_zeta(anti) == 0.0 and c_effective(anti) == 1.0
    report(
        "9",
        "cutoff regulator matches zeta finite parts; energy identity; "
        "antisymmetric couplings shift nothing",
        grid_ok and ident_ok and anti_ok,
        f"worst grid diff {worst:.2e}",
    )


def test_criterion_10_parameter_layer_identities():
    rng = random.Random(20060419)
    worst = 0.0
    for _ in range(100):
        n = rng.uniform(-1.999999, 2.0)
        for phase in ("dilute", "dense"):
            p = params_from_n(n, phase)
            worst = max(worst, abs(electric_dimension(p, -2.0) - 2.0))
            worst = max(worst, abs(vortex_marginality_check(p) - 1.0))
    ids_ok = worst < 1e-12

    cheb_ok = True
    for theta in (0.37, 1.02, 1.94, 2.71):
        n_prime = 2.0 * math.cos(theta)
        for p in range(17):
            lhs = wrap_coefficient(p, n_prime) * math.sin(theta)
            if abs(lhs - math.sin((p + 1) * theta)) > 1e-10:
                cheb_ok = False
    # polynomial structure: integer coefficients via exact endpoint values
    cheb_ok = cheb_ok and all(
        wrap_coefficient(p, F(2)) == p + 1 and wrap_coefficient(p, F(-2)) == (p + 1) * (-1) ** p
        for p in range(17)
    )

    gfac = boundary_g_factor(params_from_n(1.0, "dilute"))
    gfac_ok = abs(gfac - 1.0) < 1e-12
    report(
        "10",
        "x_{-2}=2, vortex marginality, degeneracy recurrence, Ising g-factor",
        ids_ok and cheb_ok and gfac_ok,
        f"worst identity dev {worst:.2e}, b0^2(4/3) = {gfac:.15f}",
    )
