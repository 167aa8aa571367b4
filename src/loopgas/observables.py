r"""Derived observables: percolation crossing, self-avoiding loops, log sector.

Percolation (Q = 1 dense, g = 2/3): setting the wrap weight to n' = 0 kills
every configuration with a loop winding the annulus, which happens exactly
when some cluster connects the two boundaries, so

    P = prod_{r>=1}(1-q^r)^{-1}
        sum_{k in Z} ( q^{8k^2/3 - 2k/3} - q^{8k^2/3 + 2k + 1/3} ),

with 1 - P ~ q^{1/3} as q -> 0 and P ~ (3/2)^{1/2} qtilde^{5/48} as
qtilde -> 0.  P decreases in q (a long thin tube is hard to cross) and
equivalently increases in qtilde.

Single wrapping self-avoiding loop = the O(n') term of the partition
function at n = 0:

    dilute (g = 3/2):  Z1 = prod(1-q^r)^{-1} sum_k k (-1)^{k-1} q^{3k^2/2 - k + 1/8}
    dense  (g = 1/2):  Z1 = q^{1/12} prod(1-q^r)^{-1}
                            sum_k ( q^{2k^2 - 1/8} - q^{2k^2 - 2k + 3/8} )
                          = q^{-1/24} prod_{m>=1} (1 - q^{m-1/2})^2,

the last equality being Gauss's identity, prod(1-q^m)(1-q^{m-1/2})^2 =
sum_k (-1)^k q^{k^2/2}, whose sum is the dense flux theta term by term.

The n -> 0 limit is logarithmic: d/dn of the full partition function at
n = 0 splits into the wrapping term Z1, a -(c'(0)/24) ln(q) Z(0) piece, and
a ln(q) piece from differentiating the flux exponents,

    dilute: -(1/pi) ln q * prod^{-1} sum_k k(2k+1) (q^{6k^2+k} - q^{6k^2+5k+1})
    dense:  +(1/pi) ln q * q^{1/12} prod^{-1}
                         sum_k k(2k+1) (q^{2k^2-k} - q^{2k^2+3k+1}),

where the constants are the exact chain-rule factors dg/dn = -+1/(2 pi)
combined with dh/dg = p^2/4 + p/2, so the three-term decomposition equals
the derivative without free normalization.

Each series above is theta times prod(1-q^r)^{-1}, theta being the exact
flux sum of `annulus._flux_theta`, rounded once per term if floating:
sum_p w_p q^{h(p) - c/24} over all p in Z, with w_{-1} = 0 and w_p = -w_{-p-2}
for p <= -2.  crossing_probability is `partition_direct` at n = 1 dense, n' = 0
(d_p = cos(p pi/2)); only the derivatives below, not a wrap weight, keep their
own weight table w_p for p >= 0 (d_p as in `loopgas.params`):

    saw_loop_derivative_series (n = 0, either phase): d/dn' d_p at n' = 0,
        i.e. (-1)^k (k+1) at p = 2k+1 and 0 at even p
    log_partition_exact_core (n = 0): p(p+2)/8 d_p at n' = 0, which is
        dh/dg d_p / 2; regrouped=True is the null-pair form

Z1 has that one builder: saw_loop_dilute and saw_loop_dense are its two
phases.  Gauss's sum, the product and the alternating sums above re-derive
the same series at every cutoff, so they are test-suite oracles, not checks
run on each call.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .annulus import _flux_theta, partition_direct
from .errors import DomainError, TailBoundError
from .params import CGParams, Phase, as_phase, params_from_n, wrap_weight
from .qseries import Backend, GenSeries, _as_cutoff, _as_float, _complete

_PERCOLATION, _NO_WRAP = params_from_n(1.0, Phase.DENSE), wrap_weight(Phase.DENSE, 0.0)
_N0 = {phase: params_from_n(0.0, phase) for phase in Phase}


def _d_slope_at_zero(p: int) -> int:
    """d/dn' d_p at n' = 0: (-1)^k (k+1) at p = 2k+1, zero at even p."""
    return (p + 1) // 2 * (-1) ** (p // 2) if p % 2 else 0


def _log_weight(p: int) -> int:
    """p(p+2)/8 d_p at n' = 0, half of dh/dg = p^2/4 + p/2 times d_p.

    An integer: 8 divides p(p+2) at even p, and d_p = 0 at odd p."""
    return p * (p + 2) // 8 * (1, 0, -1, 0)[p % 4]


def _flux_series(params, weight, cutoff, backend: Backend, form="integer") -> GenSeries:
    """Euler-completed flux sum with integer weights; theta exact, rounded once if floating."""
    return _complete(_flux_theta(params, weight, _as_cutoff(cutoff, backend), True, form), backend)


def crossing_probability(cutoff=64, backend: Backend = Backend.EXACT) -> GenSeries:
    """Probability that a percolation cluster joins the two annulus boundaries:
    Z at n = 1 dense with winding loops weighted n' = 0."""
    return partition_direct(_PERCOLATION, _NO_WRAP, cutoff, backend)


def wrap_count_generating(
    params: CGParams, n_prime: float, cutoff=64, backend: Backend = Backend.EXACT
) -> GenSeries:
    """Partition function with winding loops reweighted by n'.

    Polynomial in n' of the flux degeneracies, so wrap-number distributions
    follow by finite differencing in n' (Chebyshev-basis inversion is the
    natural route; left to the caller)."""
    return partition_direct(
        params, wrap_weight(params.phase, n_prime), cutoff, backend
    )


def saw_loop_derivative_series(
    phase, cutoff=64, backend: Backend = Backend.EXACT
) -> GenSeries:
    """Single wrapping self-avoiding loop Z1 = termwise d/dn' of the n = 0
    partition function at n' = 0, in either phase.

    d/dn' [sin((p+1)chi')/sin chi'] at chi' = -+pi/2 equals
    -(p+1) cos((p+1) pi/2) / 2 on both branches, so only odd p contribute."""
    return _flux_series(_N0[as_phase(phase)], _d_slope_at_zero, cutoff, backend)


def saw_loop_dilute(cutoff=64, backend: Backend = Backend.EXACT) -> GenSeries:
    """Single wrapping self-avoiding loop, dilute point (g = 3/2); ~ q^{5/8}."""
    return saw_loop_derivative_series(Phase.DILUTE, cutoff, backend)


def saw_loop_dense(
    cutoff=64, backend: Backend = Backend.EXACT
) -> tuple[GenSeries, GenSeries]:
    """Single wrapping loop in the dense phase (g = 1/2); leading q^{-1/24}.

    Returns (alternating-sum form, half-odd-integer product form), one series:
    Z1's dense phase, `saw_loop_derivative_series(Phase.DENSE, cutoff)`.  By
    Gauss's identity its flux theta is sum_{k in Z} (-1)^k q^{k^2/2 - 1/24}, so
    the series is also q^{-1/24} prod_{m>=1}(1 - q^{m-1/2})^2; the test suite
    checks both closed forms against it.  The floating backend converts each
    term of the exact series once."""
    _as_cutoff(cutoff, backend)  # the backend's own refusals, float overflow included
    series = saw_loop_derivative_series(Phase.DENSE, cutoff)
    return (series, series) if backend is Backend.EXACT else (series._rounded(),) * 2


def log_partition_exact_core(
    phase, cutoff=64, backend: Backend = Backend.EXACT, regrouped: bool = True
) -> GenSeries:
    """Rational part of the ln(q) coefficient at n = 0 (chain factor -+1/pi off).

    regrouped=True gives the null-pair form sum_{p>=0} w_p (q^{e_p} - q^{e_p+p+1});
    regrouped=False the integer-flux form over all p; they must agree termwise."""
    form = "null_pairs" if regrouped else "integer"
    return _flux_series(_N0[as_phase(phase)], _log_weight, cutoff, backend, form)


def log_chain_scale(phase) -> float:
    """Exact chain-rule constant multiplying the rational log core: -+1/pi."""
    phase = as_phase(phase)
    return -1.0 / math.pi if phase is Phase.DILUTE else 1.0 / math.pi


def log_partition(phase, cutoff=64) -> GenSeries:
    """Full ln(q)-coefficient series of dZ/dn at n = 0 (floating backend)."""
    core = log_partition_exact_core(phase, cutoff, Backend.FLOAT)
    return core * log_chain_scale(phase)


# -- asymptote fitting ----------------------------------------------------------


class AsymptoteFit(NamedTuple):
    """Power-law fit value ~ prefactor * modulus^exponent over a window."""

    exponent_fit: float
    prefactor_fit: float
    sample_window: tuple[float, float]
    residual: float


def asymptote_fit(
    evaluator: Callable[[float], tuple[float, float]],
    window: tuple[float, float],
    npoints: int = 9,
) -> AsymptoteFit:
    """Least-squares power-law fit of ln(value) against ln(modulus).

    `evaluator` maps a modulus in (0,1) to (value, tail_bound); the fit is
    refused unless every value is positive and finite and every tail bound is
    at most 1% of its value."""
    if not isinstance(window, (tuple, list)) or len(window) != 2:
        raise DomainError(f"fit window must be a pair (lo, hi), got {window!r}")
    lo, hi = (_as_float(x, "fit window", False) for x in window)
    if not (0.0 < lo < hi < 1.0):
        raise DomainError("fit window must satisfy 0 < lo < hi < 1")
    if not isinstance(npoints, int) or npoints < 8:
        raise DomainError(f"need at least 8 sample points, as an int; got {npoints!r}")
    step = (math.log(hi) - math.log(lo)) / (npoints - 1)
    xs = [math.exp(math.log(lo) + i * step) for i in range(npoints)]
    vals = []
    for x in xs:
        v, tail = evaluator(x)
        if not 0.0 < v < math.inf:  # NaN included
            raise DomainError(f"power-law fit needs positive values, got {v} at {x}")
        if not tail <= 0.01 * v:
            raise TailBoundError(
                f"tail bound {tail:.2e} exceeds 1% of value {v:.2e} at "
                f"modulus {x:.3e}; refusing to fit"
            )
        vals.append(v)
    import statistics  # only the fit needs it, and no CLI command fits

    lx, ly = [math.log(x) for x in xs], [math.log(v) for v in vals]
    slope, intercept = statistics.linear_regression(lx, ly)
    resid = max(abs(y - (slope * x + intercept)) for x, y in zip(lx, ly))
    return AsymptoteFit(
        exponent_fit=slope,
        prefactor_fit=math.exp(intercept),
        sample_window=(lo, hi),
        residual=resid,
    )
