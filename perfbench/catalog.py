"""Metric catalogue: every metric the benchmark prints, with its unit.

``END_TO_END`` is what a user of loopgas sees and is measured with tracing
off.  ``PER_LAYER`` comes from the traced run; each entry also names the
end-to-end metric it should move and the workloads where the layer does most
and least of its work, so that a later change can say beforehand which
numbers it expects to move.  ``BENCHMARK.json`` at the repository root lists
the same names and units; ``run.py --selftest`` checks that they agree.
"""

from __future__ import annotations

# The workloads of BENCHMARK.json, in its order.
WORKLOADS = ("cli-oneshot", "exact-highorder", "float-generic")
# Runnable by name but not in BENCHMARK.json.  sweep-eval, like cli-oneshot,
# is a subprocess workload whose 100-job minimum takes 30-40 s a run; with
# both, 4 + 22 x 4 runs left too little of the time the benchmark may take.
# cli-oneshot stays because it alone exercises every command (boundary
# included) and its short sweeps still exercise eval_at and the per-row
# rebuild.
EXTRA_WORKLOADS = ("sweep-eval",)

# name -> (unit, better, description).  Times and rates are at the reference
# speed of calibrate.py (wall time rescaled by the host's measured speed).
END_TO_END = {
    "setup_s": ("s", "lower",
                "median of 8 fresh-process set-ups: import, input generation, "
                "reference loading"),
    "jobs_per_s": ("1/s", "higher", "timed jobs that pass their check per second of job time"),
    "job_ms_p50": ("ms", "lower",
                   "median job latency, averaged over percentiles 45-55; "
                   "a failed job counts as missing it"),
    "job_ms_p90": ("ms", "lower",
                   "90th-percentile job latency, averaged over percentiles 85-95; "
                   "failed jobs count as missing it"),
    "rows_per_s": ("1/s", "higher",
                   "output rows that pass their check per second of job time "
                   "(a sweep row each; 1 per non-sweep job)"),
    "peak_rss_mb": ("MB", "lower",
                    "ru_maxrss of the benchmark process, or of its children for subprocess workloads"),
}

# Printed with the end-to-end metrics but not gated.  ops_failed_frac is 0 on
# every workload but float-generic, and a bound relative to 0 is meaningless; the
# JSON result carries it as its ``attempted`` and ``failed`` counts.  The other
# two show the wall-clock latency behind the scaled times and the host's speed.
REPORTED_ONLY = {
    "ops_failed_frac": ("frac", "lower", "failed jobs over attempted jobs, untimed ones included"),
    "wall_ms_p50": ("ms", "lower", "median raw wall-clock job latency, before the speed scaling"),
    "host_speed": ("x", "higher",
                   "median calibration factor: host speed over the reference speed"),
}

# (layer, metric suffixes, end-to-end metrics it should move,
#  workloads where it does most work / little work)
_LAYERS = [
    ("qseries.mul", ("calls", "self_ms", "pairs"), "jobs_per_s, job_ms_p50",
     "exact-highorder / cli-oneshot"),
    ("qseries.from_terms", ("calls", "self_ms", "terms_in", "terms_out", "keep_ratio"),
     "jobs_per_s, job_ms_p50", "exact-highorder / cli-oneshot"),
    ("qseries.euler_inverse", ("calls", "self_ms"), "jobs_per_s, job_ms_p50",
     "exact-highorder / cli-oneshot"),
    ("qseries.add", ("calls", "self_ms"), "jobs_per_s, job_ms_p50",
     "exact-highorder / cli-oneshot"),
    ("qseries.eval_at", ("calls", "self_ms"), "rows_per_s", "sweep-eval / exact-highorder"),
    ("qseries.serialise", ("calls", "self_ms", "bytes"), "rows_per_s",
     "sweep-eval / exact-highorder"),
    ("params.params_from_n", ("calls", "self_ms"), "job_ms_p50", "guard only; small everywhere"),
    ("params.wrap_weight", ("calls", "self_ms"), "job_ms_p50", "guard only; small everywhere"),
    ("annulus.flux_sum", ("calls", "self_ms", "sectors"), "jobs_per_s",
     "float-generic / exact-highorder"),
    ("annulus.partition_direct", ("calls", "self_ms", "exact_domain_errors"), "jobs_per_s",
     "float-generic / exact-highorder"),
    ("annulus.partition_crossed", ("calls", "self_ms"), "jobs_per_s",
     "float-generic / exact-highorder"),
    ("annulus.duality_check", ("calls", "self_ms", "exact_fallbacks"), "jobs_per_s",
     "float-generic / exact-highorder"),
    ("characters.rocha_caridi", ("calls", "self_ms"), "job_ms_p90",
     "exact-highorder / float-generic"),
    ("characters.decompose", ("calls", "self_ms"), "job_ms_p90",
     "exact-highorder / float-generic"),
    ("observables.crossing_probability", ("calls", "self_ms"),
     "job_ms_p90; rows_per_s through calls per row", "exact-highorder, sweep-eval / float-generic"),
    ("observables.saw_loop_dilute", ("calls", "self_ms"), "job_ms_p90",
     "exact-highorder, sweep-eval / float-generic"),
    ("observables.saw_loop_dense", ("calls", "self_ms", "child_mul_calls"),
     "job_ms_p90 (saw dense is the tail)", "exact-highorder, sweep-eval / float-generic"),
    ("observables.saw_loop_derivative_series", ("calls", "self_ms"), "job_ms_p90",
     "exact-highorder, sweep-eval / float-generic"),
    ("observables.log_partition_exact_core", ("calls", "self_ms"), "job_ms_p90",
     "exact-highorder, sweep-eval / float-generic"),
    ("boundary.e1_cutoff", ("calls", "self_ms"), "job_ms_p50", "cli-oneshot / all others"),
    ("cli", ("interp_ms", "import_ms", "import_numpy_ms", "main_ms", "stdout_bytes"),
     "job_ms_p50, job_ms_p90 on subprocess workloads; setup_s on in-process ones",
     "cli-oneshot / exact-highorder"),
]

_UNITS = {
    "calls": "count", "pairs": "count", "terms_in": "count", "terms_out": "count",
    "keep_ratio": "ratio", "bytes": "bytes", "sectors": "count",
    "exact_domain_errors": "count", "exact_fallbacks": "count",
    "child_mul_calls": "count", "stdout_bytes": "bytes",
}

# Fixed-order probes reproduce the baseline table of ROADMAP.md.  saw_dense
# stops at order 256: order 1024 takes about 83 s, more than a run may last.
PROBES = {
    "crossing": (64, 256, 1024),
    "partition_exact": (64, 256, 1024),
    "partition_float": (64, 256, 1024),
    "rocha_caridi": (64, 256, 1024),
    "saw_dense": (64, 256),
}
PROBE_CAP_NOTE = ("probe.saw_dense.o1024_ms is not run: it takes about 83 s, "
                  "more than one benchmark run may last")
# ROADMAP.md baseline (one run each, Python 3.11.7, 2-core machine), in ms.
ROADMAP_BASELINE_MS = {
    "crossing": (10.7, 92, 1040), "partition_exact": (11.4, 97, 740),
    "partition_float": (2.2, 42, 350), "rocha_caridi": (6.2, 23, 270),
    "saw_dense": (331, 5500, 82600),
}


def _build_per_layer():
    out = {}
    for prefix, suffixes, moves, where in _LAYERS:
        for s in suffixes:
            unit = _UNITS.get(s, "ms" if s.endswith("_ms") else "count")
            better = "higher" if s == "keep_ratio" else "lower"
            out[f"{prefix}.{s}"] = (unit, better, f"moves {moves}; {where}")
    for name, orders in PROBES.items():
        for k in orders:
            out[f"probe.{name}.o{k}_ms"] = ("ms", "lower", "fixed-order probe; reported, not gated")
    out["trace.overhead_pct"] = ("%", "lower",
                                 "traced minus untraced job time over the same jobs, "
                                 "as a share of untraced")
    return out


PER_LAYER = _build_per_layer()
