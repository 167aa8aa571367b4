r"""Strip ground-state energy of the Gaussian model with boundary terms.

Action S = (g/4 pi) int (grad h)^2 + alpha_1 int d_y h|_{y=0} + alpha_2 int
d_y h|_{y=L}.  Expanding in sine modes and zeta-regularizing,

    E_0 = (pi/2L) zeta(-1) = -pi/(24 L)            (the c = 1 free value)
    E_1 = (pi/gL) (alpha_1 + alpha_2)^2,

using sum_{n odd} 1 = 0 and sum_{n even} 1 = zeta(0) = -1/2.  The same
finite part must come out of any smooth regulator: `e1_cutoff` damps each
mode by e^{-eps n}, sums the closed geometric forms

    sum_{n even} e^{-eps n} = 1/(e^{2 eps} - 1),
    sum_{n odd}  e^{-eps n} = e^{-eps}/(1 - e^{-2 eps}),

and extracts the eps-independent part by fitting A/eps + B + C eps.  The
combined shift gives an effective central charge

    c_eff = 1 - (24/g)(alpha_1 + alpha_2)^2,

so E_0 + E_1 = -pi c_eff/(24 L) identically, there is no shift when
alpha_1 = -alpha_2, and real couplings only ever lower c below 1.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from numbers import Real
from typing import NamedTuple, Sequence

from .errors import DomainError, RegulatorFitError
from .qseries import _as_float, _number


class _Coupling(NamedTuple):
    g: float
    alpha1: float
    alpha2: float
    L: float = 1.0


class BoundaryCoupling(_Coupling):
    """Gaussian coupling g, boundary couplings alpha1, alpha2 and strip width L:
    finite real numbers, g and L positive, kept as given."""

    __slots__ = ()

    def __new__(cls, g: float, alpha1: float, alpha2: float, L: float = 1.0):
        self = super().__new__(cls, g, alpha1, alpha2, L)
        if not all(isinstance(x, Real) and not isinstance(x, bool) for x in self):
            raise DomainError(f"g, alpha1, alpha2 and L must be real numbers, got {self}")
        for name, x in zip(self._fields, self):
            if isinstance(x, (int, Fraction)):  # the fields whose float() can overflow
                _as_float(x, name, False)
        if not 0 < g < math.inf:
            raise DomainError("coupling g must be positive and finite")
        if not (math.isfinite(alpha1) and math.isfinite(alpha2)):
            raise DomainError("boundary couplings alpha1, alpha2 must be finite")
        _check_width(L)
        return self

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through this, so it is checked too
        return cls(*iterable)


def _check_width(L: float) -> float:
    """float(L) for a strip width: a real number, not a bool, finite and positive."""
    if not isinstance(L, Real) or isinstance(L, bool):
        raise DomainError(f"unsupported strip width L type {type(L).__name__}")
    x = _as_float(L, "strip width L", False) if isinstance(L, (int, Fraction)) else float(L)
    if not 0 < x < math.inf:
        raise DomainError("strip width L must be positive and finite")
    return x


def _finite_values(f):
    """f, refusing an overflow, a division by a g L that underflows to 0, or any
    value that is not finite, as a DomainError: never a traceback, inf or nan."""

    @functools.wraps(f)
    def checked(*args, **kwargs):
        try:
            out = f(*args, **kwargs)
        except (OverflowError, ZeroDivisionError):
            out = math.inf
        if not all(map(math.isfinite, out if isinstance(out, tuple) else (out,))):
            raise DomainError(f"{f.__name__}'s value is not finite in double precision")
        return out

    return checked


@_finite_values
def e0_zeta(L: float) -> float:
    """Zeta-regularized free ground-state energy -pi/(24 L)."""
    return -math.pi / (24.0 * _check_width(L))


@_finite_values
def e1_zeta(b: BoundaryCoupling) -> float:
    """Boundary-term energy shift pi (alpha1 + alpha2)^2 / (g L)."""
    return math.pi * (b.alpha1 + b.alpha2) ** 2 / (b.g * b.L)


@_finite_values
def e1_cutoff(
    b: BoundaryCoupling, epsilon_list: Sequence[float], fit_tol: float = 1e-9
) -> tuple[float, float]:
    """Smooth-cutoff evaluation of the boundary shift; regulator-independence check.

    Returns (finite_part, divergent_coefficient) from fitting
    E1(eps) = A/eps + B + C eps over the given eps values.  The finite part B
    must reproduce e1_zeta; A is the non-universal divergence
    -(pi/gL)[(alpha1-alpha2)^2 + (alpha1+alpha2)^2]."""
    if not _number(fit_tol, "fit_tol") > 0:
        raise DomainError(f"fit_tol must be positive, got {fit_tol!r}")
    # imported here so that importing loopgas does not load numpy; lstsq
    # (not an exact 3x3 solve) fixes the rounding of the recorded outputs
    import numpy as np

    eps = [_as_float(e, "epsilon") for e in epsilon_list]
    if len(eps) < 3 or len(set(eps)) != len(eps):
        raise DomainError("need at least 3 distinct epsilon values")
    if any(not (0.0 < e <= 0.1) for e in eps):
        raise DomainError("epsilon values must lie in (0, 0.1]")
    minus = (b.alpha1 - b.alpha2) ** 2
    plus = (b.alpha1 + b.alpha2) ** 2
    vals = []
    for e in eps:
        odd = math.exp(-e) / (1.0 - math.exp(-2.0 * e))
        even = 1.0 / (math.exp(2.0 * e) - 1.0)
        vals.append(-(2.0 * math.pi / (b.g * b.L)) * (minus * odd + plus * even))
    if not all(map(math.isfinite, vals)):
        raise DomainError("e1_cutoff's value is not finite in double precision")
    A = np.column_stack([1.0 / np.array(eps), np.ones(len(eps)), np.array(eps)])
    coef, *_ = np.linalg.lstsq(A, np.array(vals), rcond=None)
    resid = float(np.max(np.abs(A @ coef - np.array(vals))))
    scale = max(1.0, float(np.max(np.abs(vals))))
    if not resid <= fit_tol * scale:  # a nan residual fails too
        raise RegulatorFitError(
            f"regulator fit residual {resid:.2e} exceeds tolerance; "
            "epsilon values too coarse for the A/eps + B + C eps model"
        )
    divergent, finite = float(coef[0]), float(coef[1])
    return finite, divergent


@_finite_values
def c_effective(b: BoundaryCoupling) -> float:
    """Effective central charge 1 - (24/g)(alpha1 + alpha2)^2; <= 1 for real couplings."""
    return 1.0 - (24.0 / b.g) * (b.alpha1 + b.alpha2) ** 2
