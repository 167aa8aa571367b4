"""Host-speed calibration: job times at a reference speed.

The benchmark runs on shared hosts whose CPU speed drifts by up to 2x over
seconds to minutes, with CPU time tracking wall time (measured on a 2-core
virtual machine: the same 10-ms job took from 6.5 to 13.6 ms in runs a minute
apart).  Run medians then differ by that much whatever the run length.

A short pure-Python kernel is timed between consecutive jobs.  It does the
kinds of work loopgas's series engine does (dict-keyed Cauchy products over
floats and over ``Fraction``), without importing loopgas, so a change to the
program moves job times but not the kernel.  Each job's wall time is scaled by
``REF_KERNEL_MS`` over the median kernel time around it (``SpeedClock``): the
result is the job's time on a host where the kernel takes ``REF_KERNEL_MS``.
On the host above, the scaled median of a fixed float job stayed within 2%
across runs whose raw medians differed by half.  For subprocess jobs the
kernel runs in the parent, on whichever core is free: job by job that is a
poor guide to the child's speed, but over a run it follows the host (the
medians of cli-oneshot's jobs_per_s in six sets of runs spanned 3.43-4.14 1/s
raw and 4.23-4.43 1/s scaled).
"""

from __future__ import annotations

import bisect
import statistics
import time

# Kernel time, in ms, that defines the reference speed (a typical value on a
# 2-core x86-64 virtual machine with Python 3.11).
REF_KERNEL_MS = 0.8

_FLOATS = [1.0 / (i + 1) for i in range(48)]
# Filled on first use: importing fractions here would take it out of the
# import time that set-up probes measure (loopgas imports it).
_FRACTIONS: list = []


def kernel() -> None:
    if not _FRACTIONS:
        from fractions import Fraction
        _FRACTIONS.extend(Fraction(1, i + 1) for i in range(10))
    acc: dict = {}
    for i, x in enumerate(_FLOATS):
        for j, y in enumerate(_FLOATS):
            acc[i + j] = acc.get(i + j, 0.0) + x * y
    out: dict = {}
    for i, x in enumerate(_FRACTIONS):
        for j, y in enumerate(_FRACTIONS):
            out[i + j] = out.get(i + j, 0) + x * y


def kernel_ms() -> float:
    """Kernel time now, in ms: the median of three runs."""
    samples = []
    for _ in range(3):
        t0 = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[1] * 1e3


class SpeedClock:
    """Kernel times along a run, to rescale the measurements between them.

    Make one right before the first measurement and call ``mark()`` right
    after each one; then ``factor(t0, t1)`` rescales a measurement that ran
    from ``t0`` to ``t1`` (``time.perf_counter()`` values)."""

    # The speed during a measurement is taken as the median kernel time within
    # this many seconds of it.  The two kernel runs just before and just after
    # a job alone left the same 400-ms job's scaled time varying twofold
    # between runs; the host's drift is slower than this window.
    WINDOW_S = 1.0

    def __init__(self):
        self.times: list[float] = []
        self.kernel: list[float] = []
        self.mark()

    def mark(self) -> None:
        self.times.append(time.perf_counter())
        self.kernel.append(kernel_ms())

    def factor(self, t0: float, t1: float) -> float:
        lo = bisect.bisect_left(self.times, t0 - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + self.WINDOW_S)
        return REF_KERNEL_MS / statistics.median(self.kernel[lo:hi])
