"""Eta-product oracles for the registry series (ROADMAP item 9).

Euler's E(x) = prod_{k>=1}(1 - x^k) is the sparse pentagonal series, so a
product of E(x^d) is checked exactly by sparse multiplications, and any exact
integer series that starts at 1 has one factoring prod_k (1 - x^k)^{e_k},
found one k at a time.  `ETA_PRODUCTS` lists the registry points whose direct
series is such a product, as literal data; pi comes from a Machin series in
`decimal`, so references built on it need nothing but the standard library.
`eta_channel_values` evaluates such a product in both channels, the crossed
one by the S-transform of each eta factor.
"""

from decimal import Decimal, getcontext
from fractions import Fraction as F
from operator import add, sub

#: Registry series that are eta products: (model, n, phase, n', m, a, sign, exponents)
#: for Z = sign q^a prod_k (1 - x^k)^{e_k} with x = q^{1/m}.  `exponents` is either
#: a dict r_d, Z = sign q^a prod_d E(x^d)^{r_d}, so that e_k = sum_{d | k} r_d, or
#: the list e_1 .. e_P over one period P.
ETA_PRODUCTS = [
    ("n=1 dilute", 1.0, "dilute", None, 2, F(-1, 48), 1, {1: -1, 2: 2, 4: -1}),
    ("n=2 dense", 2.0, "dense", None, 4, F(-1, 24), 1, {1: -2, 2: 5, 4: -3}),
    ("n=2 dense, n'=0", 2.0, "dense", 0.0, 1, F(-1, 24), 1, {1: 1, 2: -1}),
    ("n=2 dense, n'=1", 2.0, "dense", 1.0, 4, F(-1, 24), 1,
     {1: -1, 2: 2, 3: 1, 4: -1, 6: -1}),
    ("n=0 dense, n'=1", 0.0, "dense", 1.0, 8, F(-1, 24), 1,
     {1: -1, 2: 2, 3: 1, 6: -1, 8: -1}),
    ("n=-1 dense, n'=0", -1.0, "dense", 0.0, 3, F(-1, 24), -1, {1: 2, 2: -1, 3: -1}),
    ("n=1 dilute, n'=0", 1.0, "dilute", 0.0, 3, F(-1, 48), 1,
     [0, 0, 0, 0, 1, -1, 0, 1, -1, 0, 1, -1, 1, 0, -1, 1, 0, -1, 1, 0, 0, 0, 0, 0]),
    # the percolation crossing probability, E(x) E(x^4) / (E(x^2) E(x^3))
    ("n=1 dense, n'=0", 1.0, "dense", 0.0, 3, 0, 1, {1: 1, 2: -1, 3: -1, 4: 1}),
]


def _pentagonal(top: int, d: int) -> dict:
    """Euler's E(x^d) = prod(1 - x^{dk}) = sum_k (-1)^k x^{d k(3k-1)/2} below x^top."""
    return {d * k * (3 * k - 1) // 2: 1 - 2 * (k & 1) for k in range(-top, top + 1)
            if d * k * (3 * k - 1) // 2 < top}


def _times_sparse(dense: list, sparse: dict) -> list:
    """The dense coefficient list times a sparse series, below len(dense)."""
    top, out = len(dense), [0] * len(dense)
    for e, s in sparse.items():
        for i in range(top - e):
            out[i + e] += s * dense[i]
    return out


def _factor(dense: list) -> list:
    """The integer exponents [e_1, .., e_{top-1}] of dense = prod_k (1 - x^k)^{e_k}
    below x^top, for a dense integer coefficient list with dense[0] = 1.

    Once the factors below k are divided out, the series is 1 - e_k x^k + ..., so
    e_k is minus its x^k coefficient; (1 - x^k)^{e_k} is then divided out too."""
    f, top, exponents = list(dense), len(dense), []
    if f[0] != 1:
        raise ValueError(f"a factoring starts at 1, not {f[0]}")
    for k in range(1, top):
        e = -f[k]
        exponents.append(e)
        for _ in range(abs(e)):
            if e > 0:  # times 1/(1 - x^k): each block of k adds the block before it
                for s in range(k, top, k):
                    f[s:s + k] = map(add, f[s:s + k], f[s - k:s])
            else:  # times (1 - x^k)
                f[k:] = map(sub, f[k:], f[:top - k])
    return exponents


def _exponents(exponents, top: int) -> list:
    """e_1 .. e_{top-1} of a table entry's r_d dict or one period of e_k."""
    if isinstance(exponents, dict):
        return [sum(r for d, r in exponents.items() if k % d == 0) for k in range(1, top)]
    return [exponents[(k - 1) % len(exponents)] for k in range(1, top)]


def _machin_pi():
    """pi = 16 atan(1/5) - 4 atan(1/239) in the current decimal context."""

    def atan_inv(n: int):
        eps, x = Decimal(10) ** -(getcontext().prec + 2), Decimal(1) / n
        total, term, k = x, x, 1
        while abs(term) > eps:
            term *= -x * x
            k += 2
            total += term / k
        return total

    return 16 * atan_inv(5) - 4 * atan_inv(239)


def _euler_at(lnx):
    """E(x) = sum_k (-1)^k x^{k(3k-1)/2} at x = e^{lnx}, lnx < 0, in the current
    decimal context: the k and -k terms, k >= 1, until they drop below its precision."""
    eps, total, k = Decimal(10) ** -(getcontext().prec + 2), Decimal(1), 1
    while (head := (lnx * (k * (3 * k - 1) // 2)).exp()) > eps:
        total += (-1) ** k * (head + (lnx * (k * (3 * k + 1) // 2)).exp())
        k += 1
    return total


def eta_channel_values(m: int, sign: int, r: dict, ratio: float) -> tuple:
    """(direct, crossed) values of Z = sign q^a prod_d E(x^d)^{r_d}, x = q^{1/m} and
    a = sum_d r_d d/24m, at aspect ratio `ratio` (its exact binary value) in the
    current decimal context: tau = i ratio/2, q = e^{-pi ratio}, qtilde = e^{-2pi/ratio}.

    Z is sign prod_d eta(d tau/m)^{r_d}, and eta(i t) = t^{-1/2} eta(i/t) turns each
    factor into (d ratio/2m)^{-1/2} qtilde^{(2m/d)/24} E(qtilde^{2m/d}), so

        direct  = sign q^a prod_d E(q^{d/m})^{r_d}
        crossed = sign prod_d (d ratio/2m)^{-r_d/2} qtilde^{(2m/d) r_d/24} E(qtilde^{2m/d})^{r_d}
    """
    pi, ratio = _machin_pi(), Decimal(ratio)
    a = sum(F(d * rd, 24 * m) for d, rd in r.items())
    lnq, lnqt = -pi * ratio, -2 * pi / ratio
    direct = sign * (lnq * a.numerator / a.denominator).exp()
    crossed = Decimal(sign)
    for d, rd in r.items():
        direct *= _euler_at(lnq * d / m) ** rd
        crossed *= ((d * ratio / (2 * m)).sqrt() ** -rd * (lnqt * 2 * m * rd / (24 * d)).exp()
                    * _euler_at(lnqt * 2 * m / d) ** rd)
    return direct, crossed
