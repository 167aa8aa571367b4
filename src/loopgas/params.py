r"""Coulomb-gas parametrization of the critical O(n)/Potts loop models.

The loop weight n in (-2, 2] is written n = 2 cos(chi).  The coupling of the
effective height model is g = 1 - chi/pi, with chi < 0 on the dilute branch
(g in [1, 2]) and chi > 0 on the dense branch (g in [1/2, 1) for n >= 0).
Derived quantities:

    c   = 1 - 6 (chi/pi)^2 / g          central charge
    m0  = chi/(pi g) = (1-g)/g          background magnetic flux
    x_e = ((e + chi/pi)^2 - (chi/pi)^2) / (2g)   electric dimensions
    h(p) = g p^2/4 - (1-g) p/2          boundary p-leg exponents

m0 is fixed by marginality of the +-2 vortices, (g/4)((m0+2)^2 - m0^2) = 1,
which holds identically for m0 = (1-g)/g and is exposed as a runtime check.

Loops winding the annulus may carry a modified weight n' = 2 cos(chi'); the
degeneracy factor of the p-strand sector, d_p = sin((p+1)chi')/sin(chi'), is
the Chebyshev polynomial U_p(n'/2) and is computed by the recurrence
d_{p+1} = n' d_p - d_{p-1}, which stays regular at sin(chi') = 0.

A registry of exact rational couplings backs the exact series backend at the
special points n^2 in {0, 1, 2, 3, 4} (both branches).  A loop weight is
matched on its angle, |acos(n/2)/pi - a/b| < _MATCH_TOL for a row's a/b, so
the float g = 1 - chi/pi lies that close to the row's exact g.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import DomainError
from .qseries import _as_float, _number

Number = Union[int, float, Fraction]

_MATCH_TOL = 1e-12


class Phase(enum.Enum):
    DILUTE = "dilute"
    DENSE = "dense"


def as_phase(phase: Union[Phase, str]) -> Phase:
    if isinstance(phase, Phase):
        return phase
    try:
        return Phase(str(phase).lower())
    except ValueError:
        raise DomainError(f"unknown phase {phase!r}; expected 'dilute' or 'dense'")


# chi/pi = a/b angles with rational cos^2: (chi_over_pi, n_exact or None, n^2)
# n = 2 cos(pi a/b); n_exact is a Fraction only when 2 cos is rational, while
# n^2 = 2 + 2 cos(2 pi a/b) is rational at every entry.
_Angle = tuple[Fraction, Optional[Fraction], Fraction]
_EXACT_ANGLES: list[_Angle] = [
    (Fraction(0), Fraction(2), Fraction(4)),        # n = 2
    (Fraction(1, 6), None, Fraction(3)),            # n = sqrt(3)
    (Fraction(1, 4), None, Fraction(2)),            # n = sqrt(2)
    (Fraction(1, 3), Fraction(1), Fraction(1)),     # n = 1
    (Fraction(1, 2), Fraction(0), Fraction(0)),     # n = 0
    (Fraction(2, 3), Fraction(-1), Fraction(1)),    # n = -1
    (Fraction(3, 4), None, Fraction(2)),            # n = -sqrt(2)
    (Fraction(5, 6), None, Fraction(3)),            # n = -sqrt(3)
]


#: chi/pi = a/b of each registry angle, as floats
_EXACT_CHIS = [float(angle[0]) for angle in _EXACT_ANGLES]


def _match_exact_angle(acos: float) -> Optional[_Angle]:
    x = acos / math.pi
    return next((angle for angle, chi in zip(_EXACT_ANGLES, _EXACT_CHIS)
                 if abs(x - chi) < _MATCH_TOL), None)


class CGParams(NamedTuple):
    """Coulomb-gas parameter bundle for one critical point.

    The exact fields are populated when the point lies in the exact-angle
    registry; they back the exact-rational series backend.
    """

    n: float
    phase: Phase
    chi: float
    g: float
    c: float
    m0: float
    g_exact: Optional[Fraction] = None
    n_exact: Optional[Fraction] = None
    n_sq_exact: Optional[Fraction] = None

    @property
    def c_exact(self) -> Optional[Fraction]:
        if self.g_exact is None:
            return None
        g = self.g_exact
        return 1 - 6 * (1 - g) ** 2 / g

    @property
    def m0_exact(self) -> Optional[Fraction]:
        if self.g_exact is None:
            return None
        return (1 - self.g_exact) / self.g_exact


class WrapWeight(NamedTuple):
    """Weight data n' = 2 cos(chi') for loops winding the annulus.

    chi' carries the sign convention of the host phase (negative for dilute),
    so setting n' = n reproduces the unmodified partition function.
    """

    n_prime: float
    chi_prime: float
    n_prime_exact: Optional[Fraction] = None
    n_prime_sq_exact: Optional[Fraction] = None


def params_from_n(n: float, phase: Union[Phase, str]) -> CGParams:
    """Map loop weight and phase to the full Coulomb-gas parameter bundle."""
    phase = as_phase(phase)
    n = _as_float(n, "loop weight", False)
    if not (-2.0 < n <= 2.0):
        raise DomainError(f"loop weight must satisfy -2 < n <= 2, got {n!r}")
    acos = math.acos(n / 2.0)
    chi = -acos if phase is Phase.DILUTE else acos
    g = 1.0 - chi / math.pi
    c = 1.0 - 6.0 * (chi / math.pi) ** 2 / g
    m0 = (1.0 - g) / g
    g_exact = n_exact = n_sq_exact = None
    hit = _match_exact_angle(acos)
    if hit is not None:
        frac, n_exact, n_sq_exact = hit
        g_exact = 1 + frac if phase is Phase.DILUTE else 1 - frac
    return CGParams(n, phase, chi, g, c, m0, g_exact, n_exact, n_sq_exact)


def wrap_weight(phase: Union[Phase, str], n_prime: float) -> WrapWeight:
    """Build the wrap-weight record; chi' sign follows the host phase."""
    phase = as_phase(phase)
    n_prime = _as_float(n_prime, "wrap weight", False)
    if not (-2.0 <= n_prime <= 2.0):
        raise DomainError(f"wrap weight must satisfy -2 <= n' <= 2, got {n_prime!r}")
    acos = math.acos(n_prime / 2.0)
    chi_prime = -acos if phase is Phase.DILUTE else acos
    n_prime_exact = n_prime_sq_exact = None
    as_fraction = Fraction(n_prime)
    if as_fraction.denominator <= 4096:
        # dyadic value with a small denominator: take the float literally
        n_prime_exact, n_prime_sq_exact = as_fraction, as_fraction**2
    else:
        hit = _match_exact_angle(acos)
        if hit is not None:
            _, n_prime_exact, n_prime_sq_exact = hit
    return WrapWeight(n_prime, chi_prime, n_prime_exact, n_prime_sq_exact)


def default_wrap(params: CGParams) -> WrapWeight:
    """Wrap weight n' = n: winding loops counted like all others."""
    return WrapWeight(params.n, params.chi, params.n_exact, params.n_sq_exact)


def electric_dimension(params: CGParams, e: float) -> float:
    """Scaling dimension x_e of the charge-e vertex operator (asymmetric in e)."""
    a = params.chi / math.pi
    return ((e + a) ** 2 - a**2) / (2.0 * params.g)


def leg_exponent(params: CGParams, p: int) -> float:
    """Boundary p-leg exponent h(p) = g p^2/4 - (1-g) p/2; h(0) = 0."""
    g = params.g
    return g * p * p / 4.0 - (1.0 - g) * p / 2.0


def _recurrence(a, t0, t1, step: int = 1):
    """Lookup p -> t_{p // step} for t_{i+1} = a t_i - t_{i-1}, grown on demand."""
    table = [t0, t1]

    def lookup(p: int):
        while len(table) <= p // step:
            table.append(a * table[-1] - table[-2])
        return table[p // step]

    return lookup


def wrap_coefficient(p: int, n_prime: Number) -> Number:
    """Degeneracy factor d_p = sin((p+1)chi')/sin(chi') as U_p(n'/2).

    Evaluated by the Chebyshev recurrence d_0 = 1, d_1 = n',
    d_{p+1} = n' d_p - d_{p-1}; a degree-p polynomial in n', regular at
    n' = +-2 (d_p = p+1 and (p+1)(-1)^p respectively).
    """
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise DomainError(f"wrap_coefficient requires an int p >= 0, got {p!r}")
    return _recurrence(n_prime, _number(n_prime, "wrap weight") * 0 + 1, n_prime)(p)


def vortex_marginality_check(params: CGParams) -> float:
    """(g/4)((m0+2)^2 - m0^2); equals 1 for every valid parameter bundle."""
    g, m0 = params.g, params.m0
    return (g / 4.0) * ((m0 + 2.0) ** 2 - m0**2)


def central_charge_slope_at_zero(phase: Union[Phase, str]) -> float:
    """dc/dn at n = 0 along the given branch: 5/(3 pi) dilute, 9/pi dense.

    Obtained from c(n) = 1 - 6 (chi/pi)^2 / (1 - chi/pi) with
    dchi/dn = -1/(2 sin chi) evaluated at chi = -+pi/2.
    """
    phase = as_phase(phase)
    if phase is Phase.DILUTE:
        return 5.0 / (3.0 * math.pi)
    return 9.0 / math.pi
