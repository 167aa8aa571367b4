r"""Truncated generalized power series in q with real or exact-rational exponents.

A :class:`GenSeries` is a finite list of (exponent, coefficient) terms with
strictly increasing exponents, together with a cutoff E: every term of the
underlying infinite series with exponent < E is represented exactly, nothing
is claimed beyond E.  Exponents need not be integers (q^{1/24}, q^{5/48}, ...)
and may be negative (q^{-c/24} prefactors), which is what distinguishes these
from ordinary Taylor series.

Two coefficient backends are supported:

* exact-rational -- exponents and coefficients are rationals, read as
  `fractions.Fraction`; identities like Euler's pentagonal cancellation hold
  term by term.
* floating -- doubles; terms whose exponents differ by less than 1e-9 are
  merged (distinct flux sectors can collide on one exponent at rational
  coupling, and float rounding must not split them), and a merged sum that
  is not finite is a DomainError.

Both take numbers of one kind, int, float or Fraction, and refuse anything
else, a str that float() would read included, with a DomainError that names
its type.

The module also provides the standard building blocks used throughout:
the Euler product \prod_{r\ge1}(1-q^r), its inverse (the integer-partition
generating function), the Dedekind eta series q^{1/24}\prod(1-q^r), and a
numerical check of the eta modular transformation between conjugate moduli.

Both backends keep one layout: tuples n and a for the sum of (a/C) q^{n/D}.
An exact series is its lattice: n and a are integers, exponents on (1/D)Z and
coefficients on (1/C)Z, with D and C the least that hold the terms, and text
is formatted from the integers; slot n lies below any exact cutoff iff n is
below `_slot_top`, one integer rule.  A floating series has D = C = 1, n and a its
floats, laid out by `_float_terms` (a rounded exact series and a scalar product
included), by the kernel's class path, or by a map that keeps the layout: negation,
shift, dilate, truncate.  `terms` is a view of the tuples, built as SeriesTerms on
first read; every operation reads the tuples.  Floats from outside pass `_as_float`.

Every series of the package is theta(q) times \prod(1-q^r)^{-1}, or times
\prod(1-q^{2r})^{-1} in the crossed channel's qtilde.  Every builder hands
theta, a GenSeries, and its backend to `_complete`, which refuses work past
`_WORK_CAP`, rounds an exact theta asked for in floating once and calls the one
kernel, `_euler_kernel`: an exact theta on its least lattice (`_slot_series`),
a floating one merged by `_float_terms`; either normaliser takes pairs in any
order, `_float_terms` sorting them once, stably by exponent.  Exact slots of one
residue mod D are the B-byte fields of one integer, a field per column, each
starting at half a field, more than any |sum|, so no borrow crosses fields;
each theta term adds the partition table shifted to its field (a = +-1 with no
multiply), and XOR with the start flips each field's top bit, leaving its sum in
two's complement to be read by one `struct.unpack`; the table, one p(k) per field,
is cached per width, and theta at step s is theta(q^{1/s}) completed at step 1,
then dilated.  Floating exponents have no lattice: each theta term adds one row
over the ladder k step and the floats p(k), both cached per step, and each row
ends by one rule.  One set-up, one sort by exponent mod step and one pass, groups
rows and builds the whole series on either path: at generic coupling a class is
one term or a pair of null partners, and where M = 2 max|a| p(K) is finite one
fill writes any window of columns, summed column by column, straight into every
R-th slot from r of one column-major buffer, in exponent order, unchecked for
finiteness.  The kernel fills every column and hands M >= every |coefficient| on
to `eval_at`; `_euler_evaluator` fills only the columns that eval_at's sum reads,
or completes through `_complete` where there is no class path.  Any other class
hands all rows to `_float_terms`.  Both are the Cauchy product bit for bit.  Every
other series, exact kernel outputs included, finds M on its first evaluation.  No
builder multiplies two series; a product counts its pairs first and is refused
past `_WORK_CAP`.
"""

from __future__ import annotations

import enum
import math
import struct
from bisect import bisect_left
from fractions import Fraction
from itertools import chain, compress, islice, repeat
from operator import add, itemgetter, lshift, lt, neg, truediv
from typing import Iterable, NamedTuple, Union

from .errors import BackendMismatchError, DomainError, TailBoundError

Number = Union[int, float, Fraction]

#: Exponents in the floating backend closer than this are considered equal.
FLOAT_EXPONENT_TOL = 1e-9


class Backend(enum.Enum):
    EXACT = "exact-rational"
    FLOAT = "floating"


class SeriesTerm(NamedTuple):
    exponent: Number
    coefficient: Number


def _number(x, what: str) -> Number:
    """x if it is an int, float or Fraction, the numbers both backends take;
    anything else, a bool or a str that float() would read included, is a DomainError."""
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return x
    raise DomainError(f"unsupported {what} type {type(x).__name__}")


def _as_exact(x: Number, what: str = "coefficient") -> Fraction:
    if isinstance(x, float) and not x.is_integer():
        raise DomainError(f"cannot coerce non-integral float {x!r} into the exact backend")
    return x if isinstance(x, Fraction) else Fraction(_number(x, what))


def _coerce(x: Number, backend: Backend, what: str) -> Number:
    return _as_exact(x, what) if backend is Backend.EXACT else _as_float(x, what)


def _finite(x: Number, what: str) -> Number:
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"{what} must be finite, got {x!r}")
    return x


def _as_float(x: Number, what: str, finite: bool = True) -> float:
    """x as a float, finite unless `finite` is false: a float as it is, any other
    number `_number` takes through float(), and past the largest double a DomainError."""
    if type(x) is not float:
        try:
            x = float(_number(x, what))
        except OverflowError:
            raise DomainError(f"{what} is too large for a float") from None
    return x if not finite or math.isfinite(x) else _finite(x, what)


def _float_terms(pairs, cutoff: float) -> "GenSeries":
    """The floating series of float (e, c) pairs in any order, by the floating
    backend's one merge rule, as `_slot_series` is the exact backend's.

    One stable sort by e alone keeps pairs at one exponent in the order given,
    summed from 0.0.  Exponents within FLOAT_EXPONENT_TOL of a group's first
    exponent then join that group, which keeps the first exponent even where
    that exponent's own sum is zero.  Zero sums and groups at or above the
    cutoff are dropped last, and a sum that is not finite is a DomainError."""
    es, cs = [], []
    lead = key = -math.inf
    total = part = 0.0
    for e, c in sorted(pairs, key=itemgetter(0)):
        if e == key:
            part += c
            continue
        total += part
        if e - lead >= FLOAT_EXPONENT_TOL:
            if total and lead < cutoff:
                es.append(lead)
                cs.append(total)
            lead, total = e, 0.0
        key, part = e, 0.0 + c
    total += part
    if total and lead < cutoff:
        es.append(lead)
        cs.append(total)
    return _float_series(es, cs, cutoff)


def _float_series(es, cs, cutoff: float, M=None) -> "GenSeries":
    """The floating series of merged, increasing exponents es and coefficients
    cs; a coefficient that is not finite is a DomainError, checked one by one
    unless the float kernel hands on M, its finite majorant of every
    |coefficient|, which the series keeps for `eval_at`."""
    cs = tuple(cs)
    if M is None and not all(map(math.isfinite, cs)):
        raise DomainError("a merged floating coefficient is not finite")
    return GenSeries._on_lattice(tuple(es), cs, 1, 1, cutoff, Backend.FLOAT, M)


def _float_exponents(n: tuple, cutoff: float, what: str) -> tuple:
    """Moved floating exponents n, refused unless they and the cutoff are finite
    and increasing, the exponents FLOAT_EXPONENT_TOL apart as merged ones are."""
    ladder = n + (cutoff,)
    if not (math.isfinite(ladder[0]) and math.isfinite(cutoff)
            and all(map(lt, ladder, ladder[1:]))
            and all(y - x >= FLOAT_EXPONENT_TOL for x, y in zip(n, n[1:]))):
        raise DomainError(f"{what} leaves exponents and cutoff that are not finite and "
                          "strictly increasing, or exponents closer than FLOAT_EXPONENT_TOL")
    return n


def _as_cutoff(cutoff: Number, backend: Backend) -> Number:
    """A finite cutoff in the backend's number type; exact takes any float as
    its exact binary value, since a cutoff only bounds exponents.  Every
    builder calls this first, so it also refuses a backend that is not one."""
    if not isinstance(backend, Backend):
        raise DomainError(f"backend must be a Backend, got {backend!r}")
    if backend is Backend.EXACT:
        return Fraction(_finite(_number(cutoff, "cutoff"), "cutoff"))
    return _as_float(cutoff, "cutoff")


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, without building the Fraction."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def _settled(value: float, M, e, lnq: float):
    """Whether no term at exponent e or above, |coefficient| <= M, moves a
    nonzero sum `value` by a bit: `eval_at`'s stop rule."""
    return value and M * math.exp(e * lnq) * (1.0 + 2.0 ** -50) < math.ulp(value) / 4


def _partial_sum(value: float, n, a, D: int, C: int, lnq: float, M) -> float:
    """`eval_at`'s sum: value plus a/C q^{n/D} over ascending n, left to right,
    stopped before a block of 64 terms whose first term is `_settled`."""
    # A loop, left to right: sum compensates from Python 3.12; reduce is slower.
    # n/D and a/C are correctly rounded, as float(Fraction(n, D)) is, and exact
    # at D = C = 1.  The factor covers the roundings of M and of the terms; an
    # infinite sum stops too, and is refused by `_evaluated` all the same.
    exp = math.exp
    for i in range(0, len(n), 64):
        if _settled(value, M, n[i] / D, lnq):
            break
        for x, y in zip(n[i:i + 64], a[i:i + 64]):
            value += y / C * exp(x / D * lnq)
    return value


def _evaluated(value: float, q: float, lnq: float, last, C: int, cutoff) -> tuple[float, float]:
    """`eval_at`'s (value, tail bound) from its sum and last coefficient last/C."""
    if not math.isfinite(value):
        raise DomainError(f"the series' value at q={q!r} is not finite in double precision")
    a, x = abs(last), float(cutoff) * lnq
    try:
        tail = 4.0 * (a / C) * math.exp(x) / (1.0 - q)
        # 4 |last| overflows or q^cutoff underflows: the bound through logarithms
        return value, tail if math.isfinite(tail) else math.exp(
            math.log(4.0) + math.log(a) - math.log(C) + x - math.log(1.0 - q))
    except OverflowError:  # exp(x) overflows only for a zero series; so does its bound
        return value, math.inf


class GenSeries:
    """Immutable truncated series: sum of coeff * q^exponent below ``cutoff``.

    Every series stores integers D and C and ascending tuples n and a, for
    the sum of (a/C) q^{n/D} with no zero a.  An exact series' n and a are
    integer slots, with D and C reduced by gcd to the least that hold the
    terms; a floating series' are its float exponents and coefficients, with
    D = C = 1.  `terms` is a view, built from the tuples on first read and
    kept; every operation below reads the tuples."""

    __slots__ = ("cutoff", "backend", "_terms", "_D", "_C", "_n", "_a", "_M")

    def __new__(cls, terms, cutoff: Number, backend: Backend) -> "GenSeries":
        """`from_terms(terms, cutoff, backend)`: any (exponent, coefficient)
        pairs, normalised, or its DomainError."""
        return GenSeries.from_terms(terms, cutoff, backend)

    @classmethod
    def _on_lattice(cls, n: tuple, a: tuple, D: int, C: int, cutoff,
                    backend: Backend, M=None) -> "GenSeries":
        """The series sum (a/C) q^{n/D} over tuples n, a, ascending in n with
        no zero a; an exact one on the least lattice that holds it."""
        if backend is Backend.EXACT:
            if (g := math.gcd(D, *n)) > 1:
                D, n = D // g, tuple([x // g for x in n])
            if (g := math.gcd(C, *a)) > 1:
                C, a = C // g, tuple([x // g for x in a])
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, (cutoff, backend, None, D, C, n, a, M)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value=None):  # value=None: __delattr__ too
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return GenSeries, (self.terms, self.cutoff, self.backend)

    @property
    def terms(self) -> tuple[SeriesTerm, ...]:
        """(exponent, coefficient) pairs, ascending, built from the tuples on
        first read: Fractions n/D and a/C for an exact series."""
        if self._terms is None:
            n, a = self._n, self._a
            if self.backend is Backend.EXACT:
                n, a = map(Fraction, n, repeat(self._D)), map(Fraction, a, repeat(self._C))
            object.__setattr__(self, "_terms", tuple(map(SeriesTerm, n, a)))
        return self._terms

    def _slots(self, D: int, C: int) -> list[tuple[int, int]]:
        """A series' pairs (n, a) on the lattice (1/D)Z, (1/C)Z, which must hold
        its own: a floating series' own pairs at D = C = 1."""
        dn, ca = D // self._D, C // self._C
        return list(zip([x * dn for x in self._n], [x * ca for x in self._a]))

    def _rounded(self) -> "GenSeries":
        """The floating series of an exact one, each term rounded once, merged by
        `_float_terms`; an exponent, coefficient or cutoff past the doubles is a DomainError."""
        what = "exponent"
        try:
            n = tuple(map(truediv, self._n, repeat(self._D)))
            what = "coefficient"
            a = tuple(map(truediv, self._a, repeat(self._C)))
        except OverflowError:
            raise DomainError(f"{what} is too large for a float") from None
        return _float_terms(zip(n, a), _as_float(self.cutoff, "cutoff"))

    def _texts(self, fmt=str):
        """(exponent, coefficient) for printing, lazily: an exact series' as
        'p/q' text from its integers, a floating series' through fmt."""
        if self.backend is Backend.FLOAT:
            return zip(map(fmt, self._n), map(fmt, self._a))
        return zip(map(_ratio_text, self._n, repeat(self._D)),
                   map(_ratio_text, self._a, repeat(self._C)))

    def _key(self) -> tuple:
        return self.backend, self.cutoff, self._D, self._C, self._n, self._a

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_terms(
        pairs: Iterable[tuple[Number, Number]],
        cutoff: Number,
        backend: Backend = Backend.EXACT,
    ) -> "GenSeries":
        """Normalize arbitrary (exponent, coefficient) pairs into a GenSeries.

        Duplicate exponents are summed, zero sums dropped and terms at or above
        the cutoff discarded, exactly on integer slots (`_slot_series`).  In the
        floating backend each value passes `_as_float`, and `_float_terms` merges
        the pairs as given, exponents within FLOAT_EXPONENT_TOL as one term; a
        NaN, infinite or too large value, or a sum not finite, is a DomainError.
        """
        cutoff = _as_cutoff(cutoff, backend)
        if backend is Backend.FLOAT:
            return _float_terms([(_as_float(e, "exponent"), _as_float(c, "coefficient"))
                                 for e, c in pairs], cutoff)
        terms = [(_as_exact(e, "exponent"), _as_exact(c)) for e, c in pairs]
        D = math.lcm(*(e.denominator for e, _ in terms))
        C = math.lcm(*(c.denominator for _, c in terms))
        return _slot_series([(e.numerator * D // e.denominator, c.numerator * C // c.denominator)
                             for e, c in terms], D, C, cutoff)

    @staticmethod
    def zero(cutoff: Number, backend: Backend = Backend.EXACT) -> "GenSeries":
        return GenSeries((), cutoff, backend)

    @staticmethod
    def constant(
        value: Number, cutoff: Number, backend: Backend = Backend.EXACT
    ) -> "GenSeries":
        return GenSeries.from_terms([(0, value)], cutoff, backend)

    # -- inspection --------------------------------------------------------

    @property
    def min_exponent(self) -> Number:
        """Exponent of the first term; for the zero series, the cutoff
        (the first exponent at which an unknown term could appear)."""
        if not self._n:
            return self.cutoff
        return Fraction(self._n[0], self._D) if self.backend is Backend.EXACT else self._n[0]

    @property
    def is_zero(self) -> bool:
        return not len(self)

    def coefficient(self, exponent: Number) -> Number:
        """Coefficient at an exponent (0 if absent; tolerant lookup for floats)."""
        if self.backend is Backend.EXACT:
            x = _as_exact(exponent, "exponent") * self._D
            i = bisect_left(self._n, x)
            found = i < len(self._n) and self._n[i] == x
            return Fraction(self._a[i] if found else 0, self._C)
        e = _as_float(exponent, "exponent")
        for te, tc in zip(self._n, self._a):
            if abs(te - e) < FLOAT_EXPONENT_TOL:
                return tc
        return 0.0

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self._n)

    def __repr__(self) -> str:  # compact, for interactive use
        inner = " + ".join(f"({c})*q^({e})" for e, c in islice(self._texts(), 6))
        if len(self) > 6:
            inner += " + ..."
        return f"<GenSeries[{self.backend.value}] {inner or '0'} ; cutoff={self.cutoff}>"

    # -- ring operations ---------------------------------------------------

    def _check_backend(self, other: "GenSeries") -> None:
        if self.backend is not other.backend:
            raise BackendMismatchError(
                f"cannot combine {self.backend.value} with {other.backend.value}"
            )

    def __add__(self, other: "GenSeries") -> "GenSeries":
        self._check_backend(other)
        cutoff = min(self.cutoff, other.cutoff)
        if self.backend is Backend.FLOAT:
            return _float_terms([*zip(self._n, self._a), *zip(other._n, other._a)], cutoff)
        D, C = math.lcm(self._D, other._D), math.lcm(self._C, other._C)
        return _slot_series(self._slots(D, C) + other._slots(D, C), D, C, cutoff)

    def __neg__(self) -> "GenSeries":
        return GenSeries._on_lattice(self._n, tuple(map(neg, self._a)), self._D, self._C,
                                     self.cutoff, self.backend)

    def __sub__(self, other: "GenSeries") -> "GenSeries":
        return self + (-other)

    def __mul__(self, other) -> "GenSeries":
        if isinstance(other, GenSeries):
            self._check_backend(other)
            # Cauchy product: a term e_a + e_b is complete iff every
            # contribution below it is known, which holds strictly below
            # min(cutoff_a + min_b, cutoff_b + min_a).
            cutoff = min(self.cutoff + other.min_exponent, other.cutoff + self.min_exponent)
            # exponent sums on (1/D)Z and, exact, coefficient products on (1/(C_a C_b))Z;
            # a floating series' pairs are its own (D = C = 1)
            D = math.lcm(self._D, other._D)
            xs, ys = self._slots(D, self._C), other._slots(D, other._C)
            top = cutoff if self.backend is Backend.FLOAT else _slot_top(cutoff, D)
            # x + y < top holds on a prefix of ys that shrinks as x grows (rounding is
            # monotone), so two pointers count the pairs before one is listed; a pair
            # costs about 4 of the kernel's steps (0.7-1 us floating, 0.4 us exact)
            ends, j = [], len(ys)
            for x, _ in xs:
                while j and not x + ys[j - 1][0] < top:
                    j -= 1
                ends.append(j)
            _check_work(sum(ends), 4, 1, "pairs at {} steps each")
            pairs = ((x + y, a * b) for (x, a), j in zip(xs, ends) for y, b in islice(ys, j))
            if self.backend is Backend.FLOAT:
                return GenSeries.from_terms(pairs, cutoff, self.backend)
            return _slot_series(pairs, D, self._C * other._C, cutoff)
        # scalar
        c = _coerce(other, self.backend, "scalar")
        if c == 0:
            return GenSeries.zero(self.cutoff, self.backend)
        if self.backend is Backend.FLOAT:
            # |c| times the largest |coefficient| is finite iff every product is;
            # a product that underflows to 0.0 is dropped
            _finite(c * max(map(abs, self._a), default=0.0), "scalar times the largest coefficient")
            return _float_terms(zip(self._n, [x * c for x in self._a]), self.cutoff)
        return GenSeries._on_lattice(self._n, tuple([x * c.numerator for x in self._a]),
                                     self._D, self._C * c.denominator, self.cutoff, self.backend)

    __rmul__ = __mul__

    def shift(self, delta: Number) -> "GenSeries":
        """Multiply by q^delta (exponent shift)."""
        d = _coerce(delta, self.backend, "shift")
        if self.backend is Backend.EXACT:
            D = math.lcm(self._D, d.denominator)
            k, m = D // self._D, d.numerator * (D // d.denominator)
            n = tuple([x * k + m for x in self._n])
        else:
            n, D = _float_exponents(tuple([x + d for x in self._n]), self.cutoff + d, "shift"), 1
        return GenSeries._on_lattice(n, self._a, D, self._C, self.cutoff + d, self.backend)

    def dilate(self, factor: Number) -> "GenSeries":
        """Substitute q -> q^factor (exponent scaling), factor > 0."""
        f = _coerce(factor, self.backend, "dilate factor")
        if f <= 0:
            raise DomainError("dilate factor must be positive")
        if self.backend is Backend.EXACT:
            n, D = tuple([x * f.numerator for x in self._n]), self._D * f.denominator
        else:
            n, D = _float_exponents(tuple([x * f for x in self._n]), self.cutoff * f, "dilate"), 1
        return GenSeries._on_lattice(n, self._a, D, self._C, self.cutoff * f, self.backend)

    def truncate(self, cutoff: Number) -> "GenSeries":
        c = _as_cutoff(cutoff, self.backend)
        if c > self.cutoff:
            raise DomainError("cannot extend a series by truncating upward")
        k = bisect_left(self._n, c * self._D)
        return GenSeries._on_lattice(self._n[:k], self._a[:k], self._D, self._C, c,
                                     self.backend)

    # -- evaluation ----------------------------------------------------------

    def eval_at(self, q: float) -> tuple[float, float]:
        """Evaluate at 0 < q < 1; returns (value, tail_bound).

        The value adds a/C exp(n/D ln q) left to right from 0.0, and stops
        before a block of 64 terms once M q^{n/D} (1 + 2^-50) < ulp(value)/4 at
        its first n, for a float M >= max |a/C|: n ascends, so no later term
        moves a nonzero sum by a bit, even at a binade edge.  M is max |a/C|
        (1 + 2^-50), found on the first evaluation and kept (`_M`), unless the
        float kernel's class path handed on its 2 max|a| p(K); it is no part of
        the series' value, equality, hash or pickle.  The tail bound
        4 |last coefficient| q^cutoff / (1-q) is a crude geometric heuristic, 4
        absorbing the sub-exponential growth of partition-type coefficients,
        taken through logarithms where 4 |last| or q^cutoff leaves the doubles.
        """
        try:
            q = float(q)
        except (TypeError, ValueError, OverflowError):
            pass  # refused below as the q it was given
        if not (isinstance(q, float) and 0.0 < q < 1.0):
            raise DomainError(
                f"eval_at requires 0 < q < 1, got {q!r}; near q=1 the series "
                "diverges -- evaluate in the crossed channel instead"
            )
        lnq, D, C = math.log(q), self._D, self._C
        try:
            if self._M is None and len(self._n) > 64:
                # an M past the doubles is an a/C that the full loop overflows on too
                object.__setattr__(self, "_M", max(map(abs, self._a)) / C * (1.0 + 2.0 ** -50))
            value = _partial_sum(0.0, self._n, self._a, D, C, lnq, self._M)
        except OverflowError:
            value = math.inf
        return _evaluated(value, q, lnq, self._a[-1] if self._a else C, C, self.cutoff)

    # -- serialization ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        """Exact numbers as 'p/q' text, floating ones as floats."""
        terms = [{"exponent": e, "coefficient": c} for e, c in self._texts(float)]
        cutoff = str(self.cutoff) if self.backend is Backend.EXACT else self.cutoff
        return {"backend": self.backend.value, "cutoff": cutoff, "terms": terms}

    @staticmethod
    def from_json_dict(d: dict) -> "GenSeries":
        """The series a `to_json_dict` document describes.  A document of
        another shape raises DomainError, as do terms that `from_terms` refuses."""
        dec = _decode_number
        try:
            # a name that is no backend's stays as read, for from_terms to refuse
            backend = next((b for b in Backend if b.value == d["backend"]), d["backend"])
            terms = [(dec(t["exponent"]), dec(t["coefficient"])) for t in d["terms"]]
            cutoff = dec(d["cutoff"])
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"malformed series document: {type(exc).__name__}: {exc}") from exc
        return GenSeries.from_terms(terms, cutoff, backend)

    def to_csv_rows(self) -> list[tuple[str, str]]:
        """Two-column (exponent, coefficient) rows, header excluded."""
        return list(self._texts(format_number))


def _decode_number(x) -> Number:
    if isinstance(x, bool):  # JSON true and false are no numbers
        raise TypeError(f"{x!r} is not a number")
    return Fraction(x) if isinstance(x, str) else float(x)


def format_number(x: Number) -> str:
    """Round-trippable text of a float: 17 significant digits."""
    return format(float(x), ".17g")


# -- named series -------------------------------------------------------------


def euler_inverse(cutoff: Number, backend: Backend = Backend.EXACT) -> GenSeries:
    r"""\prod_{r\ge1}(1-q^r)^{-1} = \sum_k p(k) q^k (partitions): theta = 1 completed."""
    cutoff = _as_cutoff(cutoff, backend)
    if cutoff <= 0:
        raise DomainError("euler_inverse requires cutoff > 0")
    return _complete(GenSeries.constant(1, cutoff, backend), backend)


#: p(0), p(1), ... -- grown on demand by _partition_numbers, never in place.
_PARTITIONS = [1]


def _partition_numbers(kmax: int) -> list[int]:
    """p(0..kmax) via the recurrence over Euler's pentagonal numbers, as a fresh list.

    The values come from one module-level table.  A call past its end extends
    a copy and publishes that, so a list once published never changes."""
    global _PARTITIONS
    p = _PARTITIONS
    if kmax >= len(p):
        # p(k) = sum -(-1)^j p(k - g) over g = (3j^2 - j)/2 with 0 < g <= min(k, kmax),
        # the j with 3j^2 - j < 2 kmax + 2 but j = 0, taken in order of g
        p, pent = p[:], sorted((e // 2, 2 * (j & 1) - 1)
                               for j, e in _integer_support(3, -1, 0, 2 * kmax + 2) if j)
        for k in range(len(p), kmax + 1):
            p.append(sum([s * p[k - g] for g, s in pent if g <= k]))
        _PARTITIONS = p
    return p[: kmax + 1]


#: The longest support `_integer_support` enumerates.  Recorded commands, benchmark
#: jobs and demos need at most 382 integers, a flux sum at |n| <= 1.99 and cutoff
#: 1024 at most 718; at n = 1.3 dense the cap is a cutoff of ~1.9e8, far beyond
#: what the kernel can complete (see README).
_SUPPORT_CAP = 1 << 16


#: The most work a completion may start, in steps of about 0.2 us of kernel time each:
#: theta's terms times its output columns, plus the pentagonal steps that grow p(k) to
#: the last column.  The property tests' costliest flux sum (n = -1.99 dense, cutoff
#: 1024) is 0.79 of it; partitions at n = 1.3 dense pass it up to order ~3240 (README).
_WORK_CAP = 1 << 20


def _extent(theta: GenSeries) -> tuple:
    """(terms, span) of the series theta: span from its least exponent to the cutoff."""
    return len(theta), float(theta.cutoff) - theta._n[0] / theta._D if theta._n else 0.0


def _check_work(terms: int, span, step=1, counted="terms over {} columns") -> None:
    """Refuse, in O(1) and before any of it starts, a completion of `terms` theta
    terms spanning `span` by the Euler product at `step` past `_WORK_CAP` steps;
    a product hands its pairs as `terms`, at `span` steps each, and words `counted` so."""
    columns = math.ceil(span / step)
    if terms and (columns > _WORK_CAP or terms * columns + columns ** 1.5
                  - min(len(_PARTITIONS), columns) ** 1.5 > _WORK_CAP):
        raise DomainError(f"the cutoff asks for more than {_WORK_CAP} steps of work "
                          f"({terms} {counted.format(columns)})")


def _integer_support(a: Number, b: Number, c: Number, top: Number, f=None) -> list:
    """The pairs (k, f(k)) for every integer k with f(k) < top, ascending in k, for
    a convex quadratic f(k) = a k^2 + b k + c (a > 0): (a k + b) k + c on integers
    by default, computed inline, or a caller's float exponent function, whose own
    values then decide each end and are the exponents returned.  A support longer
    than `_SUPPORT_CAP` is refused before it is enumerated."""
    # Start between the roots (-b -+ sqrt(d))/2a, d = b^2 - 4a(c - top), from isqrt
    # (integers: each end moves at most one step in, where it is a root) or sqrt
    # (floats), then move until x(lo - 1) >= top > x(lo) and x(hi) < top <= x(hi + 1)
    d = max(b * b - 4 * a * (c - top), 0)
    r = math.isqrt(d) if f is None else math.sqrt(d)
    if f is not None and not math.isfinite(r):
        raise DomainError(f"cutoff {top!r} puts the support's ends past the doubles")
    lo, hi = int(-((b + r) // (2 * a))), int((r - b) // (2 * a))
    if hi - lo + 1 > _SUPPORT_CAP:
        raise DomainError(f"the cutoff asks for a support of more than {_SUPPORT_CAP} integers")
    x = f or (lambda k: (a * k + b) * k + c)
    while x(lo - 1) < top:
        lo -= 1
    while lo <= hi and x(lo) >= top:
        lo += 1
    while x(hi + 1) < top:
        hi += 1
    while hi >= lo and x(hi) >= top:
        hi -= 1
    ks = range(lo, hi + 1)
    return [(k, f(k)) for k in ks] if f else [(k, (a * k + b) * k + c) for k in ks]


#: W -> (L, table): p(0) .. p(L - 1) packed for the exact `_euler_kernel`, one
#: per field of W 64-bit words; every step reads it, the kernel completing at step
#: 1 only.  The kernel replaces an entry with a longer one when a call needs it,
#: and never changes one in place.
_TABLES: dict[int, tuple[int, int]] = {}

#: step -> (b, p): the ladder b_k = float(k) step and float(p(k)) for the floating
#: `_euler_kernel`, each call reading a prefix; replaced by longer lists when a
#: call needs them, like _TABLES, and never changed in place.
_FLOAT_TABLES: dict[int, tuple[list, list]] = {}


def _fields(acc: int, W: int, count: int):
    """Values v of acc's `count` fields of W words holding v in two's complement, high first."""
    # each field's top word is read signed and its lower words unsigned
    code = f">{count}q" if W == 1 else ">" + ("q" + "Q" * (W - 1)) * count
    words = struct.unpack(code, acc.to_bytes(8 * W * count, "big"))
    vals = words if W == 1 else words[::W]
    for j in range(1, W):
        vals = map(add, map(lshift, vals, repeat(64)), words[j::W])
    return vals


def _slot_top(cutoff: Number, D: int) -> int:
    """The least n with n/D >= cutoff, an int, Fraction or float at its exact binary
    value: the one slot rule, slot n of (1/D)Z lies below the cutoff iff n < this."""
    c = Fraction(cutoff)
    return -(-c.numerator * D // c.denominator)


def _slot_series(slots, D: int, C: int, cutoff) -> GenSeries:
    """The exact series sum a/C q^{n/D} below `cutoff`, for integer pairs
    (n, a) in any order: the one exact normaliser.  Repeats are summed, and
    zero sums and slots at or past `_slot_top` dropped, by integer compares;
    the lattice is then reduced by gcd."""
    cutoff = Fraction(cutoff)
    top = _slot_top(cutoff, D)
    acc: dict[int, int] = {}
    for n, a in slots:
        if n < top:
            acc[n] = acc.get(n, 0) + a
    n, a = tuple(zip(*sorted(i for i in acc.items() if i[1]))) or ((), ())
    return GenSeries._on_lattice(n, a, D, C, cutoff, Backend.EXACT)


def _float_setup(theta: GenSeries, step):
    """(top, whole, cols) of the floating `_euler_kernel` of theta, a floating series:
    the cutoff, whole() on either path, each row ended by `end`, and the class path's
    (width, lo, R, M, fill) or None."""
    es, cs, cutoff = theta._n, theta._a, theta.cutoff
    if not es:
        return cutoff, lambda: theta, None
    low, tol = es[0], FLOAT_EXPONENT_TOL
    span = (cutoff - low) / step
    # b_k and p(k) for k < L = ceil(span), the k with k < span
    L, (b, p) = math.ceil(span), _FLOAT_TABLES.get(step, ((), ()))
    if len(b) < L:
        b, p = _FLOAT_TABLES[step] = ([k * step for k in map(float, range(L))],
                                      list(map(float, _partition_numbers(L - 1))))
    # The Cauchy product's cutoff bit for bit (its + 0.0 turns a -0.0 cutoff
    # into 0.0).  Rounding is monotone, so no product exceeds max|a| p(K) and
    # no pair sum M = 2 max|a| p(K), rounded: M is a majorant as it stands.
    top, lo = min(cutoff + 0.0, span * step + low), int(low // step)
    M, ceil = 2.0 * (max(map(abs, cs)) * p[L - 1]), math.ceil

    def end(e):
        # The length of e's row: it stops where the rounded e + b first reaches
        # top, found from ceil((top - e)/step) by compares.
        n = ceil((top - e) / step)
        n = 0 if n < 0 else L if n > L else n
        while n and e + b[n - 1] >= top:
            n -= 1
        while n < L and e + b[n] < top:
            n += 1
        return n

    # A class chains terms whose phases e mod step lie within 2 tol.  Below 2^16
    # an ulp is far below tol, so rows of two classes stay more than tol apart:
    # no merge group spans two classes, and in each column the classes' terms
    # follow their phases.  One sort puts the classes in phase order, and one
    # pass plans each, unless one holds three terms (rational g), wraps round
    # 0 or nears tol, or the exponents or M are too large.
    terms = sorted(zip([e % step for e in es], es, cs))
    near, N, plan, k = 2 * tol, len(terms), [], 0
    ok = (max(abs(low), abs(top)) < 2.0 ** 16 and M < math.inf
          and terms[0][0] + step - terms[-1][0] >= near)
    while ok and k < N:
        (x, e, a), k = terms[k], k + 1
        if k < N and terms[k][0] - x < near:
            # Null partners: f's row lies d columns on, delta from e's exactly,
            # and the pair is read column by column unless delta nears tol.
            (y, f, c), k = terms[k], k + 1
            ok = not (k < N and terms[k][0] - y < near)
            e, a, f, c = (f, c, e, a) if f < e else (e, a, f, c)
            col = int(e // step)
            d = int(f // step) - col
            delta = math.fsum((f, -d * step, -e))
            ok = ok and d > 0 and abs(delta) < tol / 2
            n, m = end(e), end(f) + d
            # Columns d .. t - 1 hold both rows, summed (the same in either order),
            # and the longer row runs on alone.  Rounding is monotone: the row that
            # leads each merge group at delta's sign ends no earlier than the other,
            # and gives its exponent: f's from column d on where delta < 0.
            plan.append((col - lo, n if n > m else m, e, a, f, c, d, m if n > m else n,
                         delta < 0))
        else:  # a lone term: one row, e's
            n = end(e)
            plan.append((int(e // step) - lo, n, e, a, e, 0.0, n, n, False))
    if not ok:  # every row, merged as the Cauchy product merges them
        return top, lambda: _float_terms(chain.from_iterable(
            zip([e + x for x in b[:n]], [a * x for x in p[:n]])
            for e, a, n in zip(es, cs, map(end, es))), top), None
    R = len(plan)

    def fill(k0: int, k1: int, r0: int = 0):
        """The nonzero (exponents, coefficients) of columns k0 .. k1 - 1, classes
        r0 on, in exponent order; tiles of 0 .. width - 1 join to the whole."""
        # Class r of R fills every R-th slot from r of one column-major buffer, from
        # the column of its first term on; 0.0 (dropped as a zero sum) where it has
        # no term, so the slots are in exponent order.
        ebuf, cbuf = [0.0] * ((k1 - k0) * R), [0.0] * ((k1 - k0) * R)
        for r, (col, length, e, a, f, c, d, t, late) in enumerate(plan[r0:], r0):
            j0, j1 = k0 - col if k0 > col else 0, k1 - col if k1 - col < length else length
            if j0 >= j1:
                continue
            s = (col + j0 - k0) * R + r
            if d >= j1:  # e's row alone
                cs = [a * u for u in p[j0:j1]]
            else:
                x = d if d > j0 else j0
                y = max(x, t if t < j1 else j1)
                cs = ([a * u for u in p[j0:x]]
                      + [a * u + c * v for u, v in zip(p[x:y], p[x - d:y - d])]
                      + ([c * v for v in p[y - d:j1 - d]] if late else [a * u for u in p[y:j1]]))
                if late:  # f's row gives the exponents from column d on
                    ebuf[s + (x - j0) * R:s + (j1 - j0) * R:R] = [f + u for u in b[x - d:j1 - d]]
                    j1 = x
            ebuf[s:s + (j1 - j0) * R:R] = [e + u for u in b[j0:j1]]
            cbuf[s:s + len(cs) * R:R] = cs
        return compress(ebuf, cbuf), filter(None, cbuf)

    width = max(col + length for col, length, *_ in plan)
    return top, lambda: _float_series(*fill(0, width), top, M), (width, lo, R, M, fill)


def _euler_evaluator(theta: GenSeries, step=1):
    """q -> `_euler_kernel(theta, step).eval_at(q)` for a floating series theta and
    0 < q < 1, bit for bit, building only the columns that the sum reaches, in
    windows that it keeps: with any majorant, any stop where `_settled` holds gives
    the full loop's value.  The set-up (ladder, p(k)) is capped as theta = 1's
    completion; without a class path, or where the top column sums to zero, q ->
    eval_at of `_complete(theta, Backend.FLOAT, step)`, capped as it caps."""
    _check_work(1, _extent(theta)[1], step)
    top, _, cols = _float_setup(theta, step)
    if cols:
        width, lo, R, M, fill = cols
        # |last| of the tail bound: the top column's highest nonzero slot, that of
        # the last class in phase order that reaches it, or the next one down
        last = next(filter(None, (tuple(fill(width - 1, width, r)[1])
                                  for r in range(R - 1, -1, -1))), ())
    if not (cols and last):  # no class path, or the top column's sums are all zero
        return _complete(theta, Backend.FLOAT, step).eval_at
    windows = []  # (end column, exponents, coefficients), from column 0 on
    cap = math.log(M) + math.log(4.0 * (1.0 + 2.0 ** -50))  # ln of 4 M (1 + 2^-50)

    def evaluate(q: float) -> tuple[float, float]:
        lnq, value, k, i = math.log(q), 0.0, 0, 0
        try:
            # Rounding is monotone, so no exponent from column k on undercuts (k + lo)
            # step, and none before it exceeds it: a window's own stop holds here too.
            while k < width and not _settled(value, M, (k + lo) * step, lnq):
                if i == len(windows):
                    # About 64 terms first; then up to the column where the rule would
                    # hold at this value, or one column on.
                    k1 = k + -(-64 // R) if not windows or not math.isfinite(value) else max(
                        k + 1, math.floor((math.log(math.ulp(value)) - cap) / lnq / step) - lo + 1)
                    windows.append((min(k1, width), *map(tuple, fill(k, min(k1, width)))))
                k, es, cs = windows[i]
                value = _partial_sum(value, es, cs, 1, 1, lnq, M)
                i += 1
        except OverflowError:
            value = math.inf
        return _evaluated(value, q, lnq, last[-1], 1, top)

    return evaluate


def _euler_kernel(theta: GenSeries, step=1) -> GenSeries:
    r"""theta * \prod_{r\ge1}(1-q^{step r})^{-1} below theta's cutoff, in its backend.

    Exact: theta(q^{1/step}) completed at step 1, then q -> q^step.  Each residue
    of n mod D in theta, sum a/C q^{n/D}, has one integer whose 8W-byte fields
    are its slots, one per column n // D.  A term at slot n adds p(k) to slot
    n + k D: a times the table of p(k), one per field, shifted to n's field, one
    multiply-add (an add or subtract at a = +-1) over its residue's columns.
    Floating: each theta term (e, a) adds the row (e + k step, a p(k)) below the
    cutoff, built whole by `_float_setup`: merged by classes of e mod step into
    one buffer, or merged by `_float_terms`.  Either way these are the float
    operations, in the order, of theta * euler_inverse(span/step).dilate(step):
    bit for bit."""
    if theta.is_zero:
        return theta
    if theta.backend is Backend.FLOAT:
        return _float_setup(theta, step)[1]()
    if step != 1:
        return _euler_kernel(theta.dilate(Fraction(1, step))).dilate(step)
    D, least = theta._D, theta._n[0]
    top = _slot_top(theta.cutoff, D)
    base, end = least // D, (top - 1) // D + 1  # the columns that hold slots below top
    # Slot n is field n // D - base of the accumulator of its residue n % D.
    classes: dict[int, list] = {}
    for n, a in zip(theta._n, theta._a):
        classes.setdefault(n % D, []).append((n // D - base, a))
    K = (top - 1 - least) // D
    W = (sum(map(abs, theta._a)) * _partition_numbers(K)[-1]).bit_length() // 64 + 1
    B, half, residues = 8 * W, 1 << 64 * W - 1, sorted(classes)
    # Big-endian: field f of F sits at bit 8 B (F - 1 - f), and the table holds
    # p(k) at field L - k, so one right shift moves a term's row to its own
    # field and drops what would land at or above top, k > K included.
    L, table = _TABLES.get(W, (0, 0))
    if L <= K:
        L, table = K + 1, int.from_bytes(b"".join(
            map(int.to_bytes, _partition_numbers(K), repeat(B), repeat("big"))) + bytes(B), "big")
        _TABLES[W] = L, table
    # Residue r of R fills every R-th slot from r of one column-major buffer,
    # 0 where a column's slot lies at or above top, so the slots ascend.
    R = len(residues)
    buf = [0] * ((end - base) * R)
    for i, r in enumerate(residues):
        fields = (top - 1 - r) // D - base + 1
        drop = L + 1 - fields
        # Every field's sum v has |v| <= sum |a| p(K) < half, so with half added
        # to each field, v + half is that field's B-byte digit of acc, and acc ^ bias,
        # each field's top bit flipped, holds v in two's complement.
        acc = bias = int.from_bytes(half.to_bytes(B, "big") * fields, "big")
        for f, a in classes[r]:
            # a = +-1, most theta terms, adds or subtracts the row with no multiply
            row = table >> 8 * B * (f + drop)
            acc = acc + row if a == 1 else acc - row if a == -1 else acc + a * row
        buf[i:i + fields * R:R] = _fields(acc ^ bias, W, fields)
    grid = chain.from_iterable(zip(*(range(base * D + r, end * D, D) for r in residues)))
    return GenSeries._on_lattice(tuple(compress(grid, buf)), tuple(filter(None, buf)),
                                 D, theta._C, theta.cutoff, Backend.EXACT)


def _complete(theta: GenSeries, backend: Backend, step=1) -> GenSeries:
    """`_euler_kernel(theta, step)` in `backend`: an exact theta in floating is rounded
    first, and a theta past `_WORK_CAP` refused before either."""
    _check_work(*_extent(theta), step)
    if backend is Backend.FLOAT and theta.backend is Backend.EXACT:
        theta = theta._rounded()
    return _euler_kernel(theta, step)


def pentagonal_series(cutoff: Number, backend: Backend = Backend.EXACT) -> GenSeries:
    r"""\prod_{r\ge1}(1-q^r) = \sum_{k\in\mathbb Z}(-1)^k q^{k(3k-1)/2} (Euler)."""
    cutoff = _as_cutoff(cutoff, backend)
    if cutoff <= 0:
        raise DomainError("the Euler product requires cutoff > 0")
    # k(3k - 1)/2 < cutoff iff 3k^2 - k < _slot_top(cutoff, 2)
    theta = _slot_series([(e // 2, 1 - 2 * (k & 1))
                          for k, e in _integer_support(3, -1, 0, _slot_top(cutoff, 2))],
                         1, 1, cutoff)
    return theta if backend is Backend.EXACT else theta._rounded()


#: \prod_{r\ge1}(1-q^r), which is Euler's pentagonal series term by term; the
#: test suite expands the product one factor at a time as its oracle.
euler_product = pentagonal_series


def dedekind_eta_series(cutoff: Number, backend: Backend = Backend.EXACT) -> GenSeries:
    r"""q^{1/24}\prod_{r\ge1}(1-q^r); leading term q^{1/24}."""
    shift = Fraction(1, 24) if backend is Backend.EXACT else 1.0 / 24.0
    cutoff = _as_cutoff(cutoff, backend)
    if cutoff <= shift:
        raise DomainError("dedekind_eta_series requires cutoff > 1/24")
    return pentagonal_series(cutoff - shift, backend).shift(shift)


#: Module-level alias of :meth:`GenSeries.eval_at`.
eval_at = GenSeries.eval_at


def eta_modular_check(
    tau_imag: float, order: int = 64, tol: float = 1e-10
) -> float:
    r"""Relative residual of the free-boson modular identity between channels.

    With delta = pi * tau_imag (tau_imag = l/L), q = e^{-delta} and
    qtilde = e^{-2 pi^2 / delta} the conjugate modulus, checks

        Z0(q) = q^{-1/24} prod (1-q^r)^{-1}
              = (delta/2 pi)^{1/2} qtilde^{-1/12} prod (1-qtilde^{2r})^{-1}.
    """
    if not _number(tau_imag, "tau_imag") > 0:
        raise DomainError(f"tau_imag must be positive, got {tau_imag!r}")
    _finite(tau_imag, "tau_imag")
    if not _number(tol, "tol") > 0:
        raise DomainError(f"tol must be positive, got {tol!r}")
    delta = math.pi * float(tau_imag)
    q = math.exp(-delta)
    qt = math.exp(-2.0 * math.pi**2 / delta)
    if not (0.0 < q < 1.0 and 0.0 < qt < 1.0):
        raise DomainError(
            f"tau_imag={tau_imag!r} rounds q or qtilde to 0 or 1 in double precision"
        )

    p = euler_inverse(order, Backend.FLOAT)
    lhs, tail_l = p.shift(-1.0 / 24.0).eval_at(q)
    rhs_val, tail_r = p.dilate(2.0).shift(-1.0 / 12.0).eval_at(qt)
    rhs = math.sqrt(delta / (2.0 * math.pi)) * rhs_val

    scale = max(abs(lhs), abs(rhs))
    if tail_l > tol * scale or tail_r > tol * scale:
        raise TailBoundError(
            f"truncation tails ({tail_l:.2e}, {tail_r:.2e}) exceed tolerance "
            f"{tol:.1e} at order {order}; increase the order"
        )
    return abs(lhs - rhs) / scale


def max_abs_coeff_diff(a: GenSeries, b: GenSeries) -> float:
    """Largest absolute coefficient difference between two series (common cutoff).

    Compared in the floating backend, an exact series rounded once, so exponents
    within FLOAT_EXPONENT_TOL (e.g. one ulp apart after float additions) are one term."""
    a, b = (s._rounded() if s.backend is Backend.EXACT else s for s in (a, b))
    return max(map(abs, (a - b)._a), default=0.0)
