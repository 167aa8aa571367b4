"""Record the benchmark's reference data from the program as it is now.

    PYTHONPATH=src python3 perfbench/record.py

Writes ``perfbench/data/``: the CLI and sweep command pools with the sha256 of
each command's stdout, the floating-backend input pool with fingerprints of
each result, and digests of the exact series at every order the
exact-highorder workload can draw.  Pools come from a fixed master seed; the
benchmark's ``--seed`` only chooses and orders jobs from them.  Run it once,
at the commit whose outputs are the reference, and commit the files.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

import workloads as W  # noqa: E402
from loopgas import annulus, characters, observables, params  # noqa: E402
from loopgas.qseries import Backend  # noqa: E402

MASTER_SEED = 604043
SQ2, SQ3 = repr(math.sqrt(2.0)), repr(math.sqrt(3.0))
REGISTRY_N = ["0", "1", "-1", "2", SQ2, SQ3, repr(-math.sqrt(2.0)), repr(-math.sqrt(3.0))]
REGISTRY_F = [float(x) for x in REGISTRY_N]


def log_uniform(rng, lo, hi):
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi + 1))))


def generic_n(rng):
    while True:
        n = rng.uniform(-2.0, 2.0)
        if n > -2.0 and all(abs(n - r) > 1e-3 for r in REGISTRY_F):
            return n


def fmt(x):
    return repr(round(x, 6))


def fmt_log(x):
    return f"{x:.4g}"


# -- CLI pools ------------------------------------------------------------------


def cli_candidates(rng):
    phase = lambda: rng.choice(["dilute", "dense"])  # noqa: E731
    fmt_arg = lambda: ["--format", "csv"] if rng.random() < 0.25 else []  # noqa: E731

    def model_n():
        return rng.choice(REGISTRY_N) if rng.random() < 0.5 else fmt(generic_n(rng))

    def partition():
        a = ["partition", "--n", model_n(), "--phase", phase(),
             "--order", str(log_uniform(rng, 16, 256))]
        r = rng.random()
        if r < 0.1:
            a.append("--naive")
        elif r < 0.3:
            a += ["--parity", rng.choice(["even", "odd"])]
        a += ["--backend", rng.choice(["auto", "auto", "exact", "floating"])]
        return a + fmt_arg()

    def crossed():
        return ["crossed", "--n", model_n(), "--phase", phase(),
                "--order", str(log_uniform(rng, 16, 256))] + fmt_arg()

    def duality():
        return ["duality", "--n", model_n(), "--phase", phase(),
                "--ratio", fmt(rng.uniform(0.5, 2.0)),
                "--order", str(log_uniform(rng, 32, 128))] + fmt_arg()

    def chars():
        n, ph, parity = rng.choice([(SQ3, "dense", "even"), ("1", "dilute", None),
                                    (SQ2, "dense", "even"), ("1", "dense", None)])
        a = ["characters", "--n", n, "--phase", ph, "--order", str(log_uniform(rng, 16, 128))]
        return a + (["--parity", parity] if parity else []) + fmt_arg()

    def crossing():
        return ["crossing", "--q", fmt(rng.uniform(0.05, 0.9)),
                "--order", str(log_uniform(rng, 16, 256))] + fmt_arg()

    def saw():
        ph = phase()
        hi = 64 if ph == "dense" else 256
        mod = (["--q", fmt(rng.uniform(0.05, 0.8))] if rng.random() < 0.7
               else ["--ratio", fmt(rng.uniform(0.2, 2.0))])
        return ["saw", "--phase", ph, "--order", str(log_uniform(rng, 12, hi))] + mod + fmt_arg()

    def logcft():
        return ["logcft", "--phase", phase(), "--order", str(log_uniform(rng, 16, 256))] + fmt_arg()

    def bnd():
        return ["boundary", "--g", fmt(rng.uniform(0.5, 2.0)),
                "--alpha1", fmt(rng.uniform(-0.5, 0.5)),
                "--alpha2", fmt(rng.uniform(-0.5, 0.5))] + fmt_arg()

    def short_sweep():
        t = rng.choice(["crossing", "duality", "saw"])
        if t == "crossing":
            vals = [fmt(rng.uniform(0.05, 0.9)) for _ in range(rng.randint(3, 10))]
            return ["sweep", "--target", "crossing", "--order",
                    str(log_uniform(rng, 16, 64)), "--values", ",".join(vals)]
        if t == "duality":
            vals = [fmt(rng.uniform(0.5, 2.0)) for _ in range(3)]
            return ["sweep", "--target", "duality", "--n", model_n(), "--phase", phase(),
                    "--order", str(log_uniform(rng, 32, 64)), "--values", ",".join(vals)]
        vals = [f"1e-{rng.randint(2, 12)}" for _ in range(3)]
        return ["sweep", "--target", "saw", "--phase", "dilute", "--crossed",
                "--order", str(log_uniform(rng, 16, 64)), "--values", ",".join(vals)]

    return {"partition": partition, "crossed": crossed, "duality": duality,
            "characters": chars, "crossing": crossing, "saw": saw, "logcft": logcft,
            "boundary": bnd, "sweep": short_sweep}


def sweep_candidates(rng):
    # Long grids at modest orders: every row rebuilds the same series today,
    # so the grid length, not the order, is what a build-once change would save.
    def crossing():
        vals = [fmt(rng.uniform(0.02, 0.95)) for _ in range(rng.randint(12, 40))]
        return ["sweep", "--target", "crossing", "--order", str(rng.randint(12, 20)),
                "--values", ",".join(vals)]

    def saw_dilute():
        vals = [fmt_log(10 ** rng.uniform(-12, -0.5)) for _ in range(rng.randint(12, 40))]
        return ["sweep", "--target", "saw", "--phase", "dilute", "--crossed",
                "--order", str(rng.randint(12, 20)), "--values", ",".join(vals)]

    def saw_dense():
        vals = [fmt_log(10 ** rng.uniform(-12, -0.5)) for _ in range(rng.randint(4, 10))]
        return ["sweep", "--target", "saw", "--phase", "dense", "--crossed",
                "--order", str(rng.randint(10, 12)), "--values", ",".join(vals)]

    def duality():
        n = rng.choice(REGISTRY_N) if rng.random() < 0.5 else fmt(generic_n(rng))
        vals = [fmt(rng.uniform(0.5, 2.0)) for _ in range(rng.randint(6, 16))]
        return ["sweep", "--target", "duality", "--n", n,
                "--phase", rng.choice(["dilute", "dense"]),
                "--order", str(rng.randint(16, 24)), "--values", ",".join(vals)]

    return {"crossing": crossing, "saw_dilute": saw_dilute, "saw_dense": saw_dense,
            "duality": duality}


def record_cli_pool(name, candidates, per_kind):
    env = dict(os.environ, PYTHONPATH=os.path.join(W.ROOT, "src"))
    pool, dropped = [], 0
    for kind, make in candidates.items():
        kept = 0
        while kept < per_kind:
            argv = make()
            t0 = time.perf_counter()
            p = subprocess.run([sys.executable, "-m", "loopgas.cli", *argv], cwd=W.ROOT,
                               env=env, capture_output=True)
            cost_ms = (time.perf_counter() - t0) * 1e3
            if p.returncode != 0:
                dropped += 1
                print(f"  drop (exit {p.returncode}): {' '.join(argv)}", file=sys.stderr)
                continue
            rows = 1
            if argv[0] == "sweep":
                rows = len(argv[argv.index("--values") + 1].split(","))
            pool.append({"kind": kind, "argv": argv, "rows": rows, "cost_ms": round(cost_ms, 1),
                         "sha256": hashlib.sha256(p.stdout).hexdigest()})
            kept += 1
    with open(W.DATA / name, "w") as fh:
        json.dump(pool, fh, indent=0)
    print(f"{name}: {len(pool)} commands, {dropped} dropped (non-zero exit)")


# -- in-process references ----------------------------------------------------


def record_float_pool(rng, per_kind=800):
    F = Backend.FLOAT
    pool = {k: [] for k in W.FLOAT_KINDS}
    for kind in W.FLOAT_KINDS:
        while len(pool[kind]) < per_kind:
            n, phase = generic_n(rng), rng.choice(["dilute", "dense"])
            order = log_uniform(rng, 48, 256)
            p = params.params_from_n(n, phase)
            entry = {"n": n, "phase": phase, "order": order}
            t0 = time.perf_counter()
            if kind == "partition_direct":
                entry["fp"] = W.fingerprint(annulus.partition_direct(p, None, order, F))
            elif kind == "partition_crossed":
                entry["fp"] = W.fingerprint(annulus.partition_crossed(p, None, order))
            elif kind == "partition_naive":
                entry["fp"] = W.fingerprint(annulus.partition_naive(p, None, order))
            else:
                entry["ratio"] = rng.uniform(0.5, 2.0)
                ev = annulus.duality_check(p, None, entry["ratio"], order)
                entry["values"] = [ev.direct_value, ev.crossed_value]
            # cost orders the pool so that runs draw a balanced mix; the
            # fingerprint is part of it, as it is of the benchmark's check
            entry["cost_ms"] = round((time.perf_counter() - t0) * 1e3, 2)
            pool[kind].append(entry)
    with gzip.open(W.DATA / "float_pool.json.gz", "wt") as fh:
        json.dump(pool, fh)
    for n, phase, value in W.RATIONAL_FLOAT_POINTS:
        Z = annulus.partition_direct(params.params_from_n(n, phase), None,
                                     max(W.RATIONAL_FLOAT_ORDERS))
        assert Z.terms == ((0, value),) and Z.terms[0].exponent == 0, (n, phase)
    print("float_pool.json.gz:", {k: len(v) for k, v in pool.items()})


def record_exact_refs(rng):
    lo, hi = W.EXACT_ORDERS
    p_perc = params.params_from_n(1.0, "dense")
    p_potts = params.params_from_n(math.sqrt(3.0), "dense")
    p_ising = params.params_from_n(1.0, "dilute")
    makers = {
        "crossing": lambda k: observables.crossing_probability(k),
        "partition_n1_dense": lambda k: annulus.partition_direct(p_perc, None, k),
        "parity_sqrt3_even": lambda k: annulus.partition_direct_parity(p_potts, None, k, "even"),
        "saw_dilute": lambda k: observables.saw_loop_dilute(k),
        "log_core_dilute": lambda k: observables.log_partition_exact_core("dilute", k),
        "log_core_dense": lambda k: observables.log_partition_exact_core("dense", k),
    }
    refs = {"orders": {}, "digests": {}, "decompositions": {}}
    for key, make in makers.items():
        t = time.perf_counter()
        full = make(hi)
        digests = [W.series_digest(full.truncate(k)) for k in range(lo, hi + 1)]
        # the truncation shortcut must agree with computing at each order
        for k in [lo, lo + 1, hi - 1, hi] + [rng.randint(lo, hi) for _ in range(4)]:
            assert W.series_digest(make(k)) == digests[k - lo], (key, k)
        refs["orders"][key] = [lo, hi]
        refs["digests"][key] = "".join(digests)
        print(f"  {key}: {time.perf_counter() - t:.1f} s")
    slo, shi = W.SAW_DENSE_ORDERS
    pairs = [observables.saw_loop_dense(k) for k in range(slo, shi + 1)]
    for sub, key in ((0, "saw_dense"), (1, "saw_dense_closed")):
        refs["orders"][key] = [slo, shi]
        refs["digests"][key] = "".join(W.series_digest(p[sub]) for p in pairs)
    CS = characters.CharacterSpec
    for model, Zk, basis in (
        ("ising", lambda k: annulus.partition_direct(p_ising, None, k),
         [CS(3, 4, 1, 1), CS(3, 4, 1, 3)]),
        ("potts", lambda k: annulus.partition_direct_parity(p_potts, None, k, "even"),
         [CS(5, 6, 1, s) for s in (1, 3, 5)]),
    ):
        seen = {tuple(int(characters.decompose(Zk(k), basis)[b]) for b in basis)
                for k in (lo, 64, 200)}
        assert len(seen) == 1, (model, seen)
        refs["decompositions"][model] = list(seen.pop())
    with open(W.DATA / "exact_refs.json", "w") as fh:
        json.dump(refs, fh, indent=0)
    print("exact_refs.json:", sorted(refs["orders"]))


def main(argv):
    W.DATA.mkdir(exist_ok=True)
    parts = argv or ["exact", "float", "cli", "sweep"]
    if "exact" in parts:
        record_exact_refs(random.Random(f"{MASTER_SEED}:exact"))
    if "float" in parts:
        record_float_pool(random.Random(f"{MASTER_SEED}:float"))
    if "cli" in parts:
        record_cli_pool("cli_pool.json", cli_candidates(random.Random(f"{MASTER_SEED}:cli")), 24)
    if "sweep" in parts:
        record_cli_pool("sweep_pool.json",
                        sweep_candidates(random.Random(f"{MASTER_SEED}:sweep")), 40)


if __name__ == "__main__":
    main(sys.argv[1:])
