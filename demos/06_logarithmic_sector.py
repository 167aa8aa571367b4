"""The n -> 0 derivative of the partition function: a logarithmic CFT.

dZ/dn at n = 0 splits into three pieces: the wrapping-loop series Z1, the
prefactor piece -(c'(0)/24) ln(q) Z(0), and the exponent piece
ln(q) * (explicit resummed series) from d(flux exponents)/dg * dg/dn.
All three are explicit, so the sum must match a central finite difference
of the full partition function with no free constants.
"""

import math

from loopgas import (
    Backend,
    central_charge_slope_at_zero,
    log_chain_scale,
    log_partition,
    log_partition_exact_core,
    params_from_n,
    partition_direct,
    saw_loop_derivative_series,
)

for phase in ("dilute", "dense"):
    print(f"{phase} phase:")
    core = log_partition_exact_core(phase, 20)
    print(f"  ln(q)-series core head: {core.terms[:3]}")
    print(f"  chain-rule scale: {log_chain_scale(phase):+.10f}  (= -+1/pi)")
    print(f"  c'(0) = {central_charge_slope_at_zero(phase):.10f}")

    z1 = saw_loop_derivative_series(phase, 64)
    z0 = partition_direct(params_from_n(0.0, phase), cutoff=64)
    logs = log_partition(phase, 64)
    cp = central_charge_slope_at_zero(phase)

    h = 1e-5
    print(f"  {'q':>5} {'finite difference':>20} {'three-term sum':>20} {'diff':>10}")
    for q in (0.1, 0.2, 0.3, 0.4):
        plus = partition_direct(
            params_from_n(h, phase), None, 64, Backend.FLOAT
        ).eval_at(q)[0]
        minus = partition_direct(
            params_from_n(-h, phase), None, 64, Backend.FLOAT
        ).eval_at(q)[0]
        fd = (plus - minus) / (2 * h)
        total = (
            z1.eval_at(q)[0]
            - (cp / 24.0) * math.log(q) * z0.eval_at(q)[0]
            + math.log(q) * logs.eval_at(q)[0]
        )
        print(f"  {q:>5} {fd:>20.12f} {total:>20.12f} {abs(fd - total):>10.2e}")
    print()

print("note the null-state pairing survives in the exponent piece: each")
print("term q^{a} arrives with a partner q^{a + p + 1} of opposite sign.")
core = log_partition_exact_core("dilute", 40)
print("dilute core head:", core.terms[:4])
