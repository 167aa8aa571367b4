"""Partition functions for a single self-avoiding loop winding the annulus.

The O(n') expansion of the n = 0 partition function isolates configurations
with exactly one winding loop.  In the dilute phase Z1 ~ q^{5/8} for a long
tube and grows like |ln qtilde|/(6 pi) for a thin one -- with a computable
additive constant -1/(3 sqrt 3) that makes the ratio converge only
logarithmically.  In the dense phase Z1 collapses to a half-odd-integer
Euler product with leading divergence q^{-1/24}.
"""

import math
from fractions import Fraction

from loopgas import (
    Backend,
    GenSeries,
    asymptote_fit,
    euler_inverse,
    params_from_n,
    partition_direct,
    saw_loop_dense,
    saw_loop_dilute,
    wrap_weight,
)

print("dilute wrapping loop:")
z1 = saw_loop_dilute(64)
print("  series head:", z1.terms[:3])
# the n'-derivative in closed form: sum_k k(-1)^{k-1} q^{3k^2/2 - k + 1/8} / prod(1 - q^r)
derivative = GenSeries.from_terms(
    [(Fraction(3 * k * k, 2) - k + Fraction(1, 8), k if k % 2 else -k) for k in range(-8, 9)],
    40) * euler_inverse(40)
print("  equals the termwise n'-derivative:", saw_loop_dilute(40) == derivative)

h = 1e-5
q = 0.3
fd = (
    partition_direct(params_from_n(0.0, "dilute"), wrap_weight("dilute", h), 64,
                     Backend.FLOAT).eval_at(q)[0]
    - partition_direct(params_from_n(0.0, "dilute"), wrap_weight("dilute", -h), 64,
                       Backend.FLOAT).eval_at(q)[0]
) / (2 * h)
print(f"  finite-difference check at q={q}: dZ/dn' = {fd:.10f}, "
      f"series = {z1.eval_at(q)[0]:.10f}")

fit = asymptote_fit(lambda qq: z1.eval_at(qq), (1e-6, 1e-4))
print(f"  long-tube power: Z1 ~ q^{fit.exponent_fit:.6f}  (exact 5/8)")

print()
print("thin-annulus growth (crossed channel):")
print(f"{'qtilde':>8} {'Z1':>12} {'(1/6pi)|ln qt|':>16} {'difference':>12} {'ratio':>8}")
for qt in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
    qq = math.exp(2.0 * math.pi**2 / math.log(qt))
    v = z1.eval_at(qq)[0]
    asym = abs(math.log(qt)) / (6.0 * math.pi)
    print(f"{qt:>8.0e} {v:>12.8f} {asym:>16.8f} {v - asym:>12.8f} {v / asym:>8.4f}")
print(f"  the difference converges to -1/(3 sqrt 3) = {-1 / (3 * math.sqrt(3)):.8f},")
print("  so the ratio approaches 1 only as the log grows past that constant.")

print()
print("dense wrapping loop:")
series, _ = saw_loop_dense(40)
# the Jacobi product q^{-1/24} prod_{m<=40} (1 - q^{m-1/2})^2, one factor at a time
cutoff = 40 + Fraction(1, 24)
closed = GenSeries.constant(1, cutoff)
for m in range(1, 41):
    factor = GenSeries.from_terms([(0, 1), (m - Fraction(1, 2), -1)], cutoff)
    closed = closed * factor * factor
closed = closed.shift(Fraction(-1, 24))
print("  theta-sum head:   ", series.terms[:3])
print("  product-form head:", closed.terms[:3])
print("  the two forms agree term by term (Jacobi triple product):",
      series == closed)
print(f"  leading divergence q^({series.terms[0].exponent}) from the"
      " length-weighted winding loop")
