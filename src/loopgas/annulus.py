r"""Annulus partition functions of the critical loop models, in both channels.

Direct channel (q = e^{-pi l/L}; l = circumference, L = width):

    Z = q^{-c/24} prod_{r>=1}(1-q^r)^{-1}
        sum_{p in Z} [sin((p+1)chi')/sin(chi')] q^{g p^2/4 - (1-g) p/2}

The sum over all integer flux p already carries the null-state subtraction:
the p <= -2 terms cancel the level-(p+1) null descendant of each p >= 0
sector, so the same series can be written over p >= 0 as
d_p (q^{h(p)} - q^{h(p)+p+1}).  Both forms are implemented and must agree.
Wherever `_exact_ok` holds (registry coupling, rational n') the flux sum is
exact in both backends, and a floating one is that exact sum rounded once
per term; float exponent arithmetic is left to the other points.

The un-subtracted first guess (coefficients cos((p - m0) chi') instead) is
kept as `partition_naive` to exhibit how it fails.  Its leading crossed
power is still -c/12 (the m = 0 Gaussian of its Poisson resummation has
coefficient cos(0) = 1); what it gets wrong is the leading prefactor,
(2/g)^{1/2} in place of b_0^2, and the boundary spectrum, which keeps a
rogue p = -1 exponent g/4 + (1-g)/2 above the identity (1/6 at Ising).

Crossed channel (qtilde = e^{-2 pi L/l}, so ln q * ln qtilde = 2 pi^2):

    Z = (2/g)^{1/2} qtilde^{-c/12} prod_{r>=1}(1-qtilde^{2r})^{-1}
        sum_{m in Z} [sin((chi'+2 pi m)/g)/sin(chi')]
        qtilde^{((chi'+2 pi m)^2 - chi^2)/(2 pi^2 g)}

obtained from the direct channel by Poisson resummation; `duality_check`
verifies the two numerically.  Stored exponents always include the
qtilde^{-c/12} prefactor so a GenSeries is self-contained.  At sin(chi') = 0,
which in doubles is exactly n' = +-2, the m and -m (or m and -1-m) terms are
paired and the limit taken; the pairing also produces ln(qtilde) terms in
sin(k pi/g), k = 2m or 2m + 1, which vanish iff k/g is an integer N, decided
as N g = k to the registry's _MATCH_TOL: at every k iff g = 2/N or 1/N.
A series cannot represent those, so a nonzero one raises IdentityError.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import DomainError, IdentityError, TailBoundError
from .params import _MATCH_TOL, CGParams, WrapWeight, _recurrence, default_wrap, leg_exponent
from .qseries import (
    Backend,
    GenSeries,
    _as_cutoff,
    _complete,
    _euler_evaluator,
    _float_terms,
    _integer_support,
    _number,
    _slot_series,
    _slot_top,
)


class ChannelEval(NamedTuple):
    """One numerical channel-duality evaluation at aspect ratio l/L."""

    ratio: float
    q: float
    q_tilde: float
    direct_value: float
    crossed_value: float
    residual: float
    tail_bounds: tuple[float, float]

    def to_json_dict(self) -> dict:
        return {**self._asdict(), "tail_bounds": list(self.tail_bounds)}


# -- direct channel -----------------------------------------------------------


def _exponent(params: CGParams, exact: bool):
    """((a, b, c, f), den), `_integer_support`'s quadratic of h(p) - c/24 =
    ((a p + b) p + c)/den: if `exact`, the integers of (6u^2 p^2 + 12u(u - v) p
    + 6(v - u)^2 - uv) / 24uv at g = u/v and f None, else f the exponent in
    float arithmetic, g/4 (p - m0)^2 + const, with a = g/4, b = -2a m0, c = f(0)
    and den = 1."""
    if exact:
        u, v = params.g_exact.numerator, params.g_exact.denominator
        return (6 * u * u, 12 * u * (u - v), 6 * (v - u) ** 2 - u * v, None), 24 * u * v
    f, a = (lambda p: leg_exponent(params, p) - params.c / 24.0), params.g / 4.0
    return (a, -2.0 * a * params.m0, f(0), f), 1


def _exact_ok(
    params: CGParams, w: Optional[WrapWeight] = None, parity: Optional[str] = None
) -> bool:
    """Whether the exact backend can build this flux sum: the coupling is in
    the exact registry, and n' is rational (for the even sector alone, a
    rational n'^2 is enough)."""
    w = default_wrap(params) if w is None else w
    return params.g_exact is not None and (
        w.n_prime_exact is not None
        or parity == "even" and w.n_prime_sq_exact is not None
    )


def _wrap_table(w: WrapWeight, exact: bool):
    """d_p for p >= 0 as a lookup: exact where `_exact_ok` holds, else floats.

    `_exact_ok` admits an irrational n' for the even-parity sector alone,
    whose sums only ever touch even-index d_p, which close under the step-two
    recurrence d_{p+2} = (n'^2 - 2) d_p - d_{p-2}; that keeps e.g. n' = sqrt(Q)
    points exact even though n' itself is irrational.  Where n' (or n'^2) is
    an integer the exact table recurs on ints, as `_recurrence` runs them."""
    if not exact:
        return _recurrence(w.n_prime, 1.0, float(w.n_prime))
    x, y = w.n_prime_exact, w.n_prime_sq_exact
    return _recurrence(x, 1, x) if x is not None else _recurrence(y - 2, 1, y - 1, 2)


def _flux_range(cutoff, a, b, c, f) -> list:
    """(p, e) for every flux p with exponent e below cutoff, ascending: the
    `_integer_support` of `_exponent`'s (a, b, c, f), on an integer cutoff if exact.

    A module-level name called through the module global: perfbench's tracer
    patches it to count the flux sectors of each `flux_sum`."""
    return _integer_support(a, b, c, cutoff, f)


def _flux_theta(params: CGParams, weight, cutoff, exact: bool, form: str = "integer",
                parity: Optional[str] = None):
    """The flux sum theta, weight w_p = weight(p) on each sector p >= 0, over
    the sectors with h(p) - c/24 below cutoff: exact on its least lattice if
    `exact` (int or Fraction weights), else, for where `_exact_ok` fails, the
    floating series of its pairs merged by `_float_terms`, as `from_terms` would
    merge them.  form="integer" sums over all p in Z, reflecting the table as
    w_{-1} = 0 and w_p = -w_{-p-2} for p <= -2 (the null-state subtraction,
    p + 1 columns on); form="null_pairs" sums w_p (q^{e_p} - q^{e_p+p+1}) over
    p >= 0, whose partners may lie above the cutoff.  `flux_sum` and every
    observable are this sum with their own weight table."""
    exponent, den = _exponent(params, exact)
    sectors = _flux_range(_slot_top(cutoff, den) if exact else cutoff, *exponent)
    # sectors ascend in p, so w_0 .. w_hi covers both p and -p - 2
    hi = max(sectors[-1][0], -2 - sectors[0][0]) if sectors else -1
    w = list(map(weight, range(hi + 1)))
    if exact:  # on (1/C)Z
        C = math.lcm(*(x.denominator for x in w))
        w = [x.numerator * C // x.denominator for x in w]
    if form == "null_pairs":
        pairs = [t for p, e in sectors if p >= 0 for t in ((e, w[p]), (e + p * den + den, -w[p]))]
    else:
        pairs = [(e, w[p]) if p >= 0 else (e, -w[-p - 2]) for p, e in sectors
                 if p != -1 and (parity is None or p % 2 == (parity == "odd"))]
    return (_slot_series(pairs, den, C, cutoff) if exact
            else _float_terms(pairs, cutoff))


def flux_sum(
    params: CGParams,
    w: Optional[WrapWeight] = None,
    cutoff=64,
    parity: Optional[str] = None,
    backend: Backend = Backend.EXACT,
    form: str = "integer",
) -> GenSeries:
    """The direct channel's theta with q^{-c/24}, as a series: the flux sum that
    `partition_direct`, `partition_direct_parity` and the duality check's floating
    direct channel complete, not applied here.

    form="integer" sums over all p in Z (optionally parity-restricted);
    form="null_pairs" builds the equivalent p >= 0 combination
    d_p (q^{h(p)} - q^{h(p)+p+1}).  Where `_exact_ok` holds theta is built
    exact in both backends, and the floating one rounds each term once, as
    `_complete` rounds an exact theta; elsewhere it is a floating series."""
    w = default_wrap(params) if w is None else w
    if parity not in (None, "even", "odd"):
        raise DomainError(f"parity must be 'even', 'odd' or None, got {parity!r}")
    if form not in ("integer", "null_pairs"):
        raise DomainError(f"unknown flux-sum form {form!r}")
    if form == "null_pairs" and parity is not None:
        raise DomainError("parity restriction applies to the integer-flux form only")
    exact = _exact_ok(params, w, parity)
    if backend is Backend.EXACT and not exact:
        raise DomainError("exact backend needs an exact-registry coupling and a rational wrap "
                          "weight (or rational n'^2 for the even-parity sector); use the "
                          "floating backend for this point")
    cutoff_c = _as_cutoff(cutoff, backend)
    x, den = _exponent(params, exact)
    if not (x[2] < _slot_top(cutoff_c, den) if exact else x[2] < cutoff_c):
        raise DomainError(f"cutoff {cutoff} excludes the p=0 identity term at exponent "
                          f"{Fraction(x[2], den) if exact else x[2]}; increase it")
    theta = _flux_theta(params, _wrap_table(w, exact), cutoff_c, exact, form, parity)
    return theta._rounded() if exact and backend is Backend.FLOAT else theta


def partition_direct(
    params: CGParams,
    w: Optional[WrapWeight] = None,
    cutoff=64,
    backend: Backend = Backend.EXACT,
) -> GenSeries:
    """Annulus partition function, direct channel, null states subtracted.

    The p = 0 sector is normalized to coefficient 1 (identity operator)."""
    return _complete(flux_sum(params, w, cutoff, None, backend), backend)


def partition_direct_parity(
    params: CGParams,
    w: Optional[WrapWeight] = None,
    cutoff=64,
    parity: str = "even",
    backend: Backend = Backend.EXACT,
) -> GenSeries:
    """Direct-channel partition function restricted to even or odd flux p.

    In the Potts interpretation the even sector is free/free and the odd
    sector free/fixed-type boundary conditions."""
    if parity not in ("even", "odd"):
        raise DomainError("parity must be 'even' or 'odd'")
    return _complete(flux_sum(params, w, cutoff, parity, backend), backend)


def partition_naive(
    params: CGParams, w: Optional[WrapWeight] = None, cutoff=64
) -> GenSeries:
    """Un-subtracted first-guess partition function (floating backend).

    Coefficients cos((p - m0) chi') in place of the Chebyshev factors; kept
    only to demonstrate its failure.  The p = -1 term survives, a rogue
    boundary exponent g/4 + (1-g)/2 above the identity (1/6 at Ising).  In
    the crossed channel the leading power is the same -c/12 + (chi'^2 -
    chi^2)/(2 pi^2 g) as in `partition_crossed`, but its prefactor is
    (2/g)^{1/2}, without the factor sin(chi'/g)/sin(chi') that makes it b_0^2
    at chi' = chi."""
    w = default_wrap(params) if w is None else w
    cutoff_f = _as_cutoff(cutoff, Backend.FLOAT)
    exponent, _ = _exponent(params, exact=False)
    if not exponent[2] < cutoff_f:
        raise DomainError("cutoff excludes the p=0 term; increase it")
    pairs = [
        (e, math.cos((p - params.m0) * w.chi_prime))
        for p, e in _flux_range(cutoff_f, *exponent)
    ]
    return _complete(_float_terms(pairs, cutoff_f), Backend.FLOAT)


# -- crossed channel ----------------------------------------------------------


def _crossed_gap(params: CGParams, u: float) -> float:
    return (u * u - params.chi**2) / (2.0 * math.pi**2 * params.g)


def _crossed_table(params: CGParams, w: WrapWeight):
    """The crossed summand as (u, vertex, weight): term m sits at
    qtilde^{-c/12 + _crossed_gap(u(m))}, least at m = vertex, with coefficient
    weight(m).  At n' = +-2 (cos(chi') = n'/2) the m and -m or m and -1-m terms
    pair: j >= 0 carries 2 cos(u/g)/(g cos(chi')) at u = k pi, k = 2j + (n' < 0),
    half at k = 0 (None at j < 0); the ln(qtilde) term 2 u sin(u/g)/(pi^2 g cos(chi'))
    must vanish, as it does iff k/g is an integer N: N g = k to a relative _MATCH_TOL."""
    g, chi_p, pref = params.g, w.chi_prime, math.sqrt(2.0 / params.g)
    if abs(w.n_prime) != 2.0:
        s = math.sin(chi_p)
        u = lambda m: chi_p + 2.0 * math.pi * m
        return u, -chi_p / (2.0 * math.pi), lambda m: pref * math.sin(u(m) / g) / s
    s0, odd = w.n_prime / 2, w.n_prime < 0
    u = lambda j: math.pi * (2 * j + odd)

    def weight(j):
        if j < 0:
            return None
        k, uj = 2 * j + odd, u(j)
        pair = 2.0 if k else 1.0
        if k and abs(round(k / g) * g - k) >= _MATCH_TOL * k:
            raise IdentityError(
                f"crossed channel develops a ln(qtilde) term (coefficient "
                f"{pair * uj * math.sin(uj / g) / (math.pi**2 * g * s0):.3e}) at n' = "
                f"{w.n_prime}; no pure power series exists -- evaluate in the direct channel"
            )
        return pref * pair * math.cos(uj / g) / (g * s0)

    return u, -odd / 2, weight


def _crossed_terms(params: CGParams, w: Optional[WrapWeight], cutoff):
    """The crossed channel's theta in qtilde, including qtilde^{-c/12}, as the
    floating series that `partition_crossed` completes by the step-2 Euler
    kernel; at n' = n, m and -1-m are null partners 2(2m+1) columns apart."""
    w = default_wrap(params) if w is None else w
    u, vertex, weight = _crossed_table(params, w)
    cutoff_f = _as_cutoff(cutoff, Backend.FLOAT)
    f = lambda m: -params.c / 12.0 + _crossed_gap(params, u(m))
    a = 2.0 / params.g
    pairs = [(e, c) for m, e in _integer_support(a, -2.0 * a * vertex, f(0), cutoff_f, f)
             if (c := weight(m)) is not None]
    if not pairs:
        raise DomainError("cutoff excludes the leading crossed-channel term")
    return _float_terms(pairs, cutoff_f)


def partition_crossed(
    params: CGParams, w: Optional[WrapWeight] = None, cutoff=64
) -> GenSeries:
    """Crossed-channel partition function as a floating series in qtilde.

    Stored exponents include the qtilde^{-c/12} prefactor; with chi' = chi
    the exponent ladder is -c/12 + x_{2m} (even electric charges) and the
    m = 0 coefficient is the boundary-entropy factor b_0^2."""
    return _complete(_crossed_terms(params, w, cutoff), Backend.FLOAT, 2)


def duality_check(
    params: CGParams,
    w: Optional[WrapWeight] = None,
    ratio: float = 1.0,
    cutoff=64,
    tol: float = 1e-8,
) -> ChannelEval:
    """Evaluate both channels at aspect ratio l/L and return the residual.

    Agreement validates the whole Poisson-resummation derivation; disagreement
    beyond tolerance would mean an inconsistent pair of series.  The values
    and tails are eval_at's of the full series, bit for bit, though a
    floating channel is built only as far as its sum reads."""
    return _duality_evaluator(params, w, cutoff, tol)(ratio)


def _duality_evaluator(params: CGParams, w: Optional[WrapWeight], cutoff, tol: float):
    """ratio -> ChannelEval for one model.  Both channels are set up once, at
    the first ratio that passes the range check: an exact direct channel in
    full, a floating one and the crossed one as `qseries._euler_evaluator`,
    which builds each column once, and only those that a sum reaches."""
    if not _number(tol, "tol") > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    channels = []

    def evaluate(ratio: float) -> ChannelEval:
        if not (0.2 <= _number(ratio, "ratio") <= 5.0):
            raise DomainError("ratio must lie in [0.2, 5] for both channels to converge")
        if not channels:  # the direct channel first, then the crossed one
            channels[:] = (
                partition_direct(params, w, cutoff, Backend.EXACT).eval_at if _exact_ok(params, w)
                else _euler_evaluator(flux_sum(params, w, cutoff, None, Backend.FLOAT)),
                _euler_evaluator(_crossed_terms(params, w, cutoff), 2))
        direct, crossed = channels
        q = math.exp(-math.pi * ratio)
        qt = math.exp(-2.0 * math.pi / ratio)
        dv, dt = direct(q)
        cv, ct = crossed(qt)
        if dt > tol or ct > tol:
            raise TailBoundError(
                f"tail bounds ({dt:.2e}, {ct:.2e}) exceed {tol:.1e} at order "
                f"{cutoff}; increase the cutoff"
            )
        return ChannelEval(
            ratio=float(ratio),
            q=q,
            q_tilde=qt,
            direct_value=dv,
            crossed_value=cv,
            residual=abs(dv - cv),
            tail_bounds=(dt, ct),
        )

    return evaluate


# -- boundary data ------------------------------------------------------------


def boundary_g_factor(params: CGParams) -> float:
    """Identity-module boundary factor b_0^2: the m = 0 coefficient of the
    crossed channel at n' = n, (2/g)^{1/2} sin(chi/g)/sin(chi).

    At n = 2 (g = 1, chi = 0) the paired limit gives sqrt(2)."""
    return _crossed_table(params, default_wrap(params))[2](0)


def leading_asymptote(
    params: CGParams, w: Optional[WrapWeight] = None
) -> tuple[float, float]:
    """(prefactor, exponent) of the m = 0 crossed term relative to qtilde^{-c/12}:

        Z ~ (2/g)^{1/2} [sin(chi'/g)/sin(chi')] qtilde^{(chi'^2-chi^2)/(2 pi^2 g)}

    refused at n' = +-2 exactly, where sin(chi') = 0 and the terms pair.
    """
    if w is None:
        w = default_wrap(params)
    if abs(w.n_prime) == 2.0:
        raise DomainError(
            "leading_asymptote requires sin(chi') != 0; at n' = +-2 take the "
            "paired limit via partition_crossed"
        )
    u, _, weight = _crossed_table(params, w)
    return weight(0), _crossed_gap(params, u(0))
