r"""Minimal-model Virasoro characters and partition-function decomposition.

For the minimal model M(p, p') (coprime, p < p') with central charge
c = 1 - 6 (p'-p)^2 / (p p'), the irreducible character of the Kac field
(r, s), normalized to include q^{-c/24}, is the Rocha-Caridi alternating sum

    chi_{r,s}(q) = prod_{n>=1}(1-q^n)^{-1}
        sum_{k in Z} ( q^{(2 p p' k + p' r - p s)^2/(4 p p') - 1/24}
                     - q^{(2 p p' k + p' r + p s)^2/(4 p p') - 1/24} ),

whose leading exponent is h_{r,s} - c/24 with
h_{r,s} = ((p' r - p s)^2 - (p'-p)^2)/(4 p p').

`decompose` peels a partition function into a combination of characters by
ascending leading exponent, one peel-off for both backends: it reads the
coefficients c_i, as exact Fractions, off the numerators theta_i and completes
sum c_i theta_i once, rounded first where Z is floating, as Z's own theta is.
A nonzero remainder below the cutoff is a hard error.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import DecompositionError, DomainError
from .qseries import (
    Backend,
    GenSeries,
    _as_cutoff,
    _check_work,
    _coerce,
    _complete,
    _integer_support,
    _partition_numbers,
    _slot_series,
    _slot_top,
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


def _character_theta(spec: CharacterSpec, cutoff) -> GenSeries:
    """The alternating sum over k that is the exact numerator of `spec`'s
    character below `cutoff`, the character times prod(1-q^r).  Its k = 0
    slot of offset p'r - ps is the least for every valid spec, so it starts
    at h - c/24, `spec.leading_exponent`; the test suite checks that."""
    N = spec.p_minor * spec.p_major
    a = spec.p_major * spec.r - spec.p_minor * spec.s
    b = spec.p_major * spec.r + spec.p_minor * spec.s
    # (2Nk + offset)^2/4N - 1/24 = (6 (2Nk + offset)^2 - N) / D
    D = 24 * N
    top = _slot_top(cutoff, D)
    slots = [(e, sign) for offset, sign in ((a, 1), (b, -1))
             for _, e in _integer_support(24 * N * N, 24 * N * offset, 6 * offset * offset - N, top)]
    if not slots:
        raise DomainError("cutoff excludes every character term; increase it")
    return _slot_series(slots, D, 1, cutoff)


def rocha_caridi(spec: CharacterSpec, cutoff=64, backend: Backend = Backend.EXACT) -> GenSeries:
    """Irreducible Virasoro character of `spec`, q^{-c/24} included."""
    return _complete(_character_theta(spec, _as_cutoff(cutoff, backend)), backend)


def decompose(
    Z: GenSeries,
    basis: Sequence[CharacterSpec],
    cutoff=None,
) -> dict[CharacterSpec, object]:
    """Express Z as a combination of basis characters by greedy peel-off.

    Returns {spec: coefficient}, each in Z's number type; raises
    DecompositionError (carrying the residual series) if a nonzero
    remainder survives below the cutoff."""
    if not basis:
        raise DomainError("empty character basis")
    leadings = [spec.leading_exponent for spec in basis]
    if len(set(leadings)) != len(leadings):
        raise DomainError("basis characters must have distinct leading exponents")
    order = sorted(range(len(basis)), key=leadings.__getitem__)

    eff = Z.cutoff if cutoff is None else min(Z.cutoff, _as_cutoff(cutoff, Z.backend))
    # A character is its numerator theta over the one Euler product, so at
    # slot H of the lattice (1/D)Z it is sum a p((H - n)/D) over theta's
    # slots n <= H on H's residue mod D.  The greedy coefficient at a
    # character's first slot H, its h - c/24, is Z's there less what the
    # characters before it put there, an exact Fraction in either backend;
    # then Z must be sum c_i theta_i completed once, by the rule Z's own
    # theta follows.
    thetas = [_character_theta(basis[i], eff) for i in order]
    D = math.lcm(*(theta._D for theta in thetas))
    rows = {basis[i]: theta._slots(D, 1) for i, theta in zip(order, thetas)}
    _check_work(1, eff - leadings[order[0]])  # the p(k) of theta = 1 completed
    p = _partition_numbers(math.floor(eff - leadings[order[0]]))
    coeffs: dict[CharacterSpec, Fraction] = {}
    for i, (spec, ((H, _), *_)) in zip(order, rows.items()):
        coeffs[spec] = Fraction(Z.coefficient(leadings[i])) - sum(
            c * sum(a * p[(H - n) // D] for n, a in rows[prior]
                    if n <= H and (H - n) % D == 0)
            for prior, c in coeffs.items())
    C = math.lcm(*(c.denominator for c in coeffs.values()))
    theta = _slot_series([(n, a * c.numerator * (C // c.denominator))
                          for spec, c in coeffs.items() for n, a in rows[spec]], D, C, eff)
    total = _complete(theta, Z.backend)
    remainder = Z.truncate(eff)
    if total != remainder:
        remainder = remainder - total
        if not remainder.is_zero:
            raise DecompositionError(
                f"decomposition leaves a nonzero remainder with leading term "
                f"{remainder.terms[0]}",
                residual=remainder,
            )
    return {spec: _coerce(c, Z.backend, "coefficient") for spec, c in coeffs.items()}


def decomposition_to_json(coeffs: dict[CharacterSpec, object]) -> dict:
    """JSON form: {"model": {"p": ..., "q": ...}, "terms": [{"r","s","coefficient"}]}."""
    if not coeffs:
        return {"model": None, "terms": []}
    specs = sorted(coeffs, key=lambda sp: sp.leading_exponent)
    model = {"p": specs[0].p_minor, "q": specs[0].p_major}
    terms = []
    for sp in specs:
        c = coeffs[sp]
        if isinstance(c, Fraction):  # an integer as a number, else 'p/q' text
            c = int(c) if c.denominator == 1 else str(c)
        else:
            c = float(c)
        terms.append({"r": sp.r, "s": sp.s, "coefficient": c})
    return {"model": model, "terms": terms}
