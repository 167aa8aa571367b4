"""Independent oracles in exact series arithmetic.

loopgas builds every observable as one weighted flux sum.  Most functions
here instead sum the closed-form brackets of the `loopgas.observables` module
docstring over k in Z directly, then multiply by prod(1-q^r)^{-1}, so that
equality with the package is a check rather than a tautology.  `peel_off` is
the character decomposition done with GenSeries subtraction, against which
the package's peel-off on the character numerators is checked.  `euler_rows`
is the exact Euler completion done one column at a time, on one integer list
per residue, against which the package's packed kernel, one integer per
residue, is checked.  `normalised` merges exact terms in a dict of Fractions,
against which the package's one exact normaliser on integer slots is
checked.  `euler_float_rows` is the floating Euler completion as one row per
theta term, merged by one stable sort and the floating merge rule, against
which the package's completion by exponent class is checked bit for bit.
`eval_sequential` is evaluation as one Python loop over the terms, against
which `GenSeries.eval_at` is checked bit for bit.  `_expand_product` multiplies
out a product of factors (1 - t^s) one factor at a time.  Through
`euler_product_expanded`, prod(1-q^r), it checks the package's
`pentagonal_series`, which `euler_product` returns; through
`saw_dense_closed`, the Jacobi product of the dense wrapping loop, it checks
the package's Gauss sum completed by the Euler kernel.  `partition_counts`
counts partitions part by part, against which the package's pentagonal
recurrence for p(k) is checked.
`quadratic_support` finds the k with a convex quadratic below a cutoff by
walking out from its vertex, against which the package's one closed-form
support finder is checked in both backends.  `json_document` is the
series document as its first encoder wrote it, every number read from
`terms` and `cutoff` through one function, against which the package's
`to_json_dict` is checked.  `cauchy_product` is the product of two series
as its first form wrote it, every pair of `terms` summed and multiplied as
Fractions or floats and normalised by `from_terms`, against which the
package's product on the integer slots and float tuples is checked.  Exact
backend, but for `euler_float_rows`, `eval_sequential`, `quadratic_support`,
`json_document` and `cauchy_product`.
"""
import math
from bisect import bisect_left
from fractions import Fraction as F
from itertools import chain, compress
from operator import itemgetter

from loopgas import Backend, GenSeries, euler_inverse, rocha_caridi
from loopgas.qseries import _float_terms, _partition_numbers


def _series(terms, cutoff):
    """prod(1-q^r)^{-1} times the sum of terms(k) over k = 0, +-1, +-2, ...

    terms(k) lists (exponent, coefficient) pairs; the walk stops at the first
    |k| >= 2 whose terms all lie at or above the cutoff."""
    cutoff = F(cutoff)
    pairs = []
    k = 0
    while True:
        ks = (k, -k) if k else (0,)
        kept = [(e, c) for kk in ks for e, c in terms(kk) if e < cutoff]
        if not kept and k > 1:
            break
        pairs += kept
        k += 1
    theta = GenSeries.from_terms(pairs, cutoff, Backend.EXACT)
    if theta.is_zero:
        return theta
    return theta * euler_inverse(theta.cutoff - theta.min_exponent)


def crossing(cutoff):
    """P: sum_k ( q^{8k^2/3 - 2k/3} - q^{8k^2/3 + 2k + 1/3} )."""
    return _series(
        lambda k: [
            (F(8 * k * k - 2 * k, 3), 1),
            (F(8 * k * k, 3) + 2 * k + F(1, 3), -1),
        ],
        cutoff,
    )


def saw_dilute(cutoff):
    """Z1 at g = 3/2: sum_k k (-1)^{k-1} q^{3k^2/2 - k + 1/8}."""
    return _series(
        lambda k: [(F(3 * k * k, 2) - k + F(1, 8), k * (-1) ** ((k - 1) % 2))], cutoff
    )


def saw_dense(cutoff):
    """Z1 at g = 1/2: q^{1/12} sum_k ( q^{2k^2 - 1/8} - q^{2k^2 - 2k + 3/8} )."""
    shift = F(1, 12)
    return _series(
        lambda k: [
            (2 * k * k - F(1, 8) + shift, 1),
            (2 * k * k - 2 * k + F(3, 8) + shift, -1),
        ],
        cutoff,
    )


def log_core(phase, cutoff, regrouped):
    """Rational ln(q) core at n = 0, in one of its two hand-derived families.

    regrouped: sum_k k(2k+1) (q^{a_k} - q^{b_k}) with the null-pair partner b_k;
    otherwise sum_k k(2k+1) q^{a_k} - k(2k-1) q^{c_k}, the direct form."""
    if phase == "dilute":
        shift, a, b, c = 0, (6, 1, 0), (6, 5, 1), (6, -5, 1)
    else:
        shift, a, b, c = F(1, 12), (2, -1, 0), (2, 3, 1), (2, -3, 1)
    quad = lambda k, t: t[0] * k * k + t[1] * k + t[2] + shift  # noqa: E731

    def terms(k):
        if regrouped:
            return [(quad(k, a), k * (2 * k + 1)), (quad(k, b), -k * (2 * k + 1))]
        return [(quad(k, a), k * (2 * k + 1)), (quad(k, c), -k * (2 * k - 1))]

    return _series(terms, cutoff)


def _expand_product(steps, length):
    """Coefficients of t^0 .. t^{length-1} in prod_{s in steps}(1 - t^s).

    One pass a[i] -= a[i-s] per factor, all i at once from the old values."""
    a = [int(i == 0) for i in range(length)]
    for s in steps:
        a[s:] = [x - y for x, y in zip(a[s:], a)]
    return a


def euler_product_expanded(cutoff):
    """prod_{r>=1}(1 - q^r) below `cutoff`, one factor at a time."""
    cutoff = F(cutoff)
    length = math.ceil(cutoff)
    return normalised(enumerate(_expand_product(range(1, length), length)), cutoff)


def partition_counts(K):
    """p(0) .. p(K) by counting partitions by their parts: one pass
    a[k] += a[k - r] per part r, ascending, the product of the geometric
    series 1/(1 - q^r) taken one factor at a time."""
    a = [1] + [0] * K
    for r in range(1, K + 1):
        for k in range(r, K + 1):
            a[k] += a[k - r]
    return a


def saw_dense_closed(cutoff):
    """q^{-1/24} prod_{m>=1} (1 - q^{m-1/2})^2 below `cutoff`: in t = q^{1/2}
    the product over odd s of (1 - t^s)^2, one pass a[i] -= a[i-s] per factor,
    whose t^j term sits at exponent j/2 - 1/24."""
    cutoff = F(cutoff)
    length = max(0, math.ceil(2 * cutoff + F(1, 12)))
    coeffs = _expand_product([s for s in range(1, length, 2) for _ in (0, 1)], length)
    return normalised([(F(12 * j - 1, 24), c) for j, c in enumerate(coeffs)], cutoff)


def peel_off(Z, basis, cutoff=None):
    """Greedy peel-off of Z into `basis` characters by ascending leading
    exponent, as series subtraction: (coefficients, remainder below the
    effective cutoff).  loopgas.decompose returns the coefficients when the
    remainder is zero and raises with it as the residual otherwise."""
    order = sorted(basis, key=lambda spec: spec.leading_exponent)
    eff = Z.cutoff if cutoff is None else min(Z.cutoff, F(cutoff))
    remainder = Z.truncate(eff)
    coeffs = {}
    for spec in order:
        coeff = remainder.coefficient(spec.leading_exponent)
        coeffs[spec] = coeff
        if coeff != 0:
            remainder = remainder - rocha_caridi(spec, eff) * coeff
    return coeffs, remainder


def euler_rows(slots, D, C, cutoff, step=1):
    """theta * prod(1 - q^{step r})^{-1} below `cutoff`, for theta the sum of
    a/C q^{n/D} over integer pairs (n, a), with one Python multiply-add per
    theta term and column.

    Slot n sits in column n // D of the row for residue n % D.  A term at slot
    n reaches slots n + k step D < top: every step-th column from its own, for
    k = 0 .. (top - 1 - n) // (step D).  The rows are read out column by
    column, which lists the slots in ascending order."""
    top = math.ceil(cutoff * D)
    summed = {}
    for n, a in slots:
        if n < top:
            summed[n] = summed.get(n, 0) + a
    slots = sorted(i for i in summed.items() if i[1])
    least = slots[0][0] if slots else top
    base = least // D
    width = (top - 1) // D - base + 1
    p = _partition_numbers((top - 1 - least) // (step * D))
    rows = {}
    for n, a in slots:
        row = rows.setdefault(n % D, [0] * width)
        lo = n // D - base
        hi = lo + (top - 1 - n) // (step * D) * step + 1
        row[lo:hi:step] = [x + a * y for x, y in zip(row[lo:hi:step], p)]
    residues = sorted(rows)
    end = (base + width) * D
    grid = chain.from_iterable(zip(*(range(base * D + r, end, D) for r in residues)))
    values = list(chain.from_iterable(zip(*(rows[r] for r in residues))))
    terms = [(F(n, D), F(a, C)) for n, a in zip(compress(grid, values), filter(None, values))]
    return normalised(terms, cutoff)


def euler_float_rows(theta, step=1):
    """theta * prod(1 - q^{step r})^{-1} below theta's cutoff, for a nonzero
    floating theta: each theta term (e, a) adds the row (e + k step, a p(k))
    below the cutoff, and one stable sort and `_float_terms` merge the rows.
    These are the float operations, in the order, of theta times
    euler_inverse(span/step).dilate(step), so the result is that product bit
    for bit."""
    low = theta.min_exponent
    span = (theta.cutoff - low) / step
    b = [k * step for k in map(float, range(math.ceil(span))) if k < span]
    p = list(map(float, _partition_numbers(len(b) - 1)))
    top = min(theta.cutoff + 0.0, span * step + low)
    pairs = []
    for e, a in zip(theta._n, theta._a):
        n = bisect_left(b, top, key=e.__add__)
        pairs += zip(map(e.__add__, b[:n]), map(a.__mul__, p[:n]))
    pairs.sort(key=itemgetter(0))
    return _float_terms(pairs, top)


def normalised(pairs, cutoff):
    """The exact series of (exponent, coefficient) pairs in any order, merged
    in a dict of Fractions: repeats summed, zero sums and exponents at or above
    the cutoff dropped, ascending, and stored on the least lattice, D and C
    the lcm of the denominators of the kept exponents and coefficients."""
    cutoff = F(cutoff)
    acc = {}
    for e, c in pairs:
        acc[F(e)] = acc.get(F(e), F(0)) + F(c)
    terms = [(e, c) for e, c in sorted(acc.items()) if c != 0 and e < cutoff]
    D = math.lcm(*(e.denominator for e, _ in terms))
    C = math.lcm(*(c.denominator for _, c in terms))
    return GenSeries._on_lattice(tuple(e.numerator * D // e.denominator for e, _ in terms),
                                 tuple(c.numerator * C // c.denominator for _, c in terms),
                                 D, C, cutoff, Backend.EXACT)


def eval_sequential(series, q):
    """(value, tail bound) of `series` at 0 < q < 1, one term at a time: the
    value adds a/C exp(n/D ln q) over the stored integers or floats, left to
    right from 0.0, and the tail is 4 |last coefficient| q^cutoff / (1 - q)."""
    lnq = math.log(q)
    value = 0.0
    D, C = series._D, series._C
    for n, a in zip(series._n, series._a):
        value += a / C * math.exp(n / D * lnq)
    last = abs(series._a[-1] / C) if series._a else 1.0
    tail = 4.0 * last * math.exp(float(series.cutoff) * lnq) / (1.0 - q)
    return value, tail


def quadratic_support(f, cutoff, vertex):
    """(k, f(k)) for every integer k with f(k) < cutoff, ascending in k.

    f must be a convex quadratic in k with its minimum at `vertex`: the set
    is then one run of integers, found by walking outward from the vertex
    until f first reaches the cutoff on each side."""
    split = math.floor(vertex)
    below, above = [], []
    for start, step, out in ((split, -1, below), (split + 1, 1, above)):
        k = start
        while (e := f(k)) < cutoff:
            out.append((k, e))
            k += step
    return below[::-1] + above


def json_document(series):
    """`series.to_json_dict()` as its first encoder wrote it: each exponent,
    coefficient and the cutoff read from `terms` and `cutoff`, a Fraction as
    its str and any other number as a float."""
    def encode(x):
        return str(x) if isinstance(x, F) else float(x)

    return {"backend": series.backend.value, "cutoff": encode(series.cutoff),
            "terms": [{"exponent": encode(e), "coefficient": encode(c)}
                      for e, c in series.terms]}


def cauchy_product(a, b):
    """`a * b` for two series of one backend as its first form wrote it: every
    pair of terms read from `terms`, exponents added and coefficients
    multiplied, kept strictly below min(cutoff_a + min_b, cutoff_b + min_a),
    then normalised by `from_terms`."""
    cutoff = min(a.cutoff + b.min_exponent, b.cutoff + a.min_exponent)
    pairs = []
    for ea, ca in a.terms:
        for eb, cb in b.terms:
            e = ea + eb
            if e < cutoff:
                pairs.append((e, ca * cb))
    return GenSeries.from_terms(pairs, cutoff, a.backend)
