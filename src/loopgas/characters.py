r"""Minimal-model Virasoro characters and partition-function decomposition.

For the minimal model M(p, p') (coprime, p < p') with central charge
c = 1 - 6 (p'-p)^2 / (p p'), the irreducible character of the Kac field
(r, s), normalized to include q^{-c/24}, is the Rocha-Caridi alternating sum

    chi_{r,s}(q) = prod_{n>=1}(1-q^n)^{-1}
        sum_{k in Z} ( q^{(2 p p' k + p' r - p s)^2/(4 p p') - 1/24}
                     - q^{(2 p p' k + p' r + p s)^2/(4 p p') - 1/24} ),

whose leading exponent is h_{r,s} - c/24 with
h_{r,s} = ((p' r - p s)^2 - (p'-p)^2)/(4 p p').

`decompose` peels a partition function into a non-negative combination of
characters by ascending leading exponent; with exact-rational series the
peel-off is unambiguous and a nonzero remainder is a hard error; it runs on
integer slots, Z and the characters on one lattice as in `qseries`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DecompositionError, DomainError, IdentityError
from .qseries import (
    Backend,
    GenSeries,
    _as_cutoff,
    _euler_kernel,
    _quadratic_support,
    _slot_series,
)


class _Labels(NamedTuple):
    p_minor: int
    p_major: int
    r: int
    s: int


class CharacterSpec(_Labels):
    """Identifies one minimal-model character by (p_minor, p_major, r, s)."""

    __slots__ = ()

    def __new__(cls, p_minor: int, p_major: int, r: int, s: int):
        self = super().__new__(cls, p_minor, p_major, r, s)
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in self):
            raise DomainError(f"p_minor, p_major, r and s must be int, got {self}")
        if not (0 < p_minor < p_major):
            raise DomainError("need 0 < p_minor < p_major")
        if math.gcd(p_minor, p_major) != 1:
            raise DomainError("p_minor and p_major must be coprime")
        if not (1 <= r < p_minor):
            raise DomainError(f"invalid Kac label r={r} for p_minor={p_minor}")
        if not (1 <= s < p_major):
            raise DomainError(f"invalid Kac label s={s} for p_major={p_major}")
        return self

    @classmethod
    def _make(cls, iterable):  # `_replace` builds through this, so it is checked too
        return cls(*iterable)

    @property
    def central_charge(self) -> Fraction:
        d = self.p_major - self.p_minor
        return 1 - Fraction(6 * d * d, self.p_minor * self.p_major)

    @property
    def h(self) -> Fraction:
        num = (self.p_major * self.r - self.p_minor * self.s) ** 2
        num -= (self.p_major - self.p_minor) ** 2
        return Fraction(num, 4 * self.p_minor * self.p_major)

    @property
    def leading_exponent(self) -> Fraction:
        return self.h - self.central_charge / 24


def rocha_caridi(
    spec: CharacterSpec, cutoff=64, backend: Backend = Backend.EXACT
) -> GenSeries:
    """Irreducible Virasoro character of `spec`, q^{-c/24} included."""
    N = spec.p_minor * spec.p_major
    a = spec.p_major * spec.r - spec.p_minor * spec.s
    b = spec.p_major * spec.r + spec.p_minor * spec.s
    cutoff_c = _as_cutoff(cutoff, backend)
    # (2Nk + offset)^2/4N - 1/24 = (6 (2Nk + offset)^2 - N) / D
    D = 24 * N
    top = math.ceil(Fraction(cutoff_c) * D)

    def family(offset: int, sign: int):
        support = _quadratic_support(
            lambda k: 6 * (2 * N * k + offset) ** 2 - N, top, Fraction(-offset, 2 * N)
        )
        return [(x, sign) for _, x in support]

    slots = family(a, 1) + family(b, -1)
    if not slots:
        raise DomainError("cutoff excludes every character term; increase it")
    theta = _slot_series(slots, D, 1, cutoff_c)
    out = _euler_kernel(theta if backend is Backend.EXACT else theta._rounded())
    leading = spec.leading_exponent
    if out.min_exponent != (leading if backend is Backend.EXACT else float(leading)):
        raise IdentityError(
            f"character {spec} starts at q^{out.min_exponent}, "
            f"not at h - c/24 = {leading}"
        )
    return out


def decompose(
    Z: GenSeries,
    basis: Sequence[CharacterSpec],
    cutoff=None,
) -> dict[CharacterSpec, object]:
    """Express Z as a combination of basis characters by greedy peel-off.

    Returns {spec: coefficient}; raises DecompositionError (carrying the
    residual series) if a nonzero remainder survives below the cutoff."""
    if not basis:
        raise DomainError("empty character basis")
    leadings = [spec.leading_exponent for spec in basis]
    if len(set(leadings)) != len(leadings):
        raise DomainError("basis characters must have distinct leading exponents")
    order = sorted(range(len(basis)), key=lambda i: leadings[i])

    eff = Z.cutoff if cutoff is None else min(Z.cutoff, _as_cutoff(cutoff, Z.backend))
    chars = {basis[i]: rocha_caridi(basis[i], eff, Z.backend) for i in order}
    coeffs: dict[CharacterSpec, object] = {}
    if Z.backend is Backend.FLOAT:
        remainder = Z.truncate(eff)
        for spec, ch in chars.items():
            coeffs[spec] = coeff = remainder.coefficient(spec.leading_exponent)
            if coeff != 0:
                remainder = remainder - ch * coeff
    else:
        # Slot n holds C times the coefficient of q^{n/D}, on the lattice of
        # Z and every character.  A character's slots are C times integers
        # and its first is its leading term, so taking a/C of it is integer
        # subtraction.
        series = [Z, *chars.values()]
        D = math.lcm(*(s._D for s in series))
        C = math.lcm(*(s._C for s in series))
        z, *rows = (s._slots(D, C) for s in series)
        top = math.ceil(eff * D)
        rem = {n: a for n, a in z if n < top}
        for spec, row in zip(chars, rows):
            coeffs[spec] = Fraction(a := rem.get(row[0][0], 0), C)
            for n, x in row if a else ():
                rem[n] = rem.get(n, 0) - x // C * a
        remainder = _slot_series([i for i in rem.items() if i[1]], D, C, eff)
    if not remainder.is_zero:
        raise DecompositionError(
            f"decomposition leaves a nonzero remainder with leading term "
            f"{remainder.terms[0]}",
            residual=remainder,
        )
    return coeffs


def decomposition_to_json(coeffs: dict[CharacterSpec, object]) -> dict:
    """JSON form: {"model": {"p": ..., "q": ...}, "terms": [{"r","s","coefficient"}]}."""
    if not coeffs:
        return {"model": None, "terms": []}
    specs = sorted(coeffs, key=lambda sp: sp.leading_exponent)
    model = {"p": specs[0].p_minor, "q": specs[0].p_major}
    terms = []
    for sp in specs:
        c = coeffs[sp]
        terms.append(
            {
                "r": sp.r,
                "s": sp.s,
                "coefficient": int(c)
                if isinstance(c, Fraction) and c.denominator == 1
                else (str(c) if isinstance(c, Fraction) else float(c)),
            }
        )
    return {"model": model, "terms": terms}
