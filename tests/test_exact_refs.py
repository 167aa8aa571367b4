"""Replay the benchmark's recorded exact-series digests (read-only).

`perfbench/data/exact_refs.json` holds, for each exact series the benchmark
times, a 12-hex-digit digest of its canonical JSON at every order of a range,
plus the character multiplicities of the Ising and 3-state Potts partition
functions.  These tests recompute a spread of them directly, so that a change
to the exact engine that moves a single coefficient fails here, not only
inside a benchmark run.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from loopgas import (
    CharacterSpec,
    annulus,
    characters,
    observables,
    params_from_n,
)

REFS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "data" / "exact_refs.json")
    .read_text()
)
DIGEST_LEN = 12
ORDERS = (32, 33, 64, 100, 211, 256, 512, 1024)

PERC = params_from_n(1.0, "dense")
POTTS = params_from_n(math.sqrt(3.0), "dense")
ISING = params_from_n(1.0, "dilute")

SERIES = {
    "crossing": observables.crossing_probability,
    "partition_n1_dense": lambda k: annulus.partition_direct(PERC, None, k),
    "parity_sqrt3_even": lambda k: annulus.partition_direct_parity(POTTS, None, k, "even"),
    "saw_dilute": observables.saw_loop_dilute,
    "log_core_dilute": lambda k: observables.log_partition_exact_core("dilute", k),
    "log_core_dense": lambda k: observables.log_partition_exact_core("dense", k),
}


def digest(series) -> str:
    """First 12 hex digits of the sha256 of the series' canonical JSON."""
    text = json.dumps(series.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:DIGEST_LEN]


def recorded(key, k) -> str:
    lo, hi = REFS["orders"][key]
    assert lo <= k <= hi
    i = DIGEST_LEN * (k - lo)
    return REFS["digests"][key][i:i + DIGEST_LEN]


@pytest.mark.parametrize("key", sorted(SERIES))
def test_series_digests(key):
    bad = [k for k in ORDERS if digest(SERIES[key](k)) != recorded(key, k)]
    assert not bad, f"{key}: digest differs at orders {bad}"


def test_saw_dense_digests_at_every_order():
    lo, hi = REFS["orders"]["saw_dense"]
    assert REFS["orders"]["saw_dense_closed"] == [lo, hi]
    bad = []
    for k in range(lo, hi + 1):
        series, closed = observables.saw_loop_dense(k)
        if digest(series) != recorded("saw_dense", k):
            bad.append(("saw_dense", k))
        if digest(closed) != recorded("saw_dense_closed", k):
            bad.append(("saw_dense_closed", k))
    assert not bad


@pytest.mark.parametrize("k", [32, 64, 200])
@pytest.mark.parametrize("model", ["ising", "potts"])
def test_decomposition_multiplicities(model, k):
    if model == "ising":
        Z = annulus.partition_direct(ISING, None, k)
        basis = [CharacterSpec(3, 4, 1, 1), CharacterSpec(3, 4, 1, 3)]
    else:
        Z = annulus.partition_direct_parity(POTTS, None, k, "even")
        basis = [CharacterSpec(5, 6, 1, s) for s in (1, 3, 5)]
    out = characters.decompose(Z, basis)
    assert [out[b] for b in basis] == REFS["decompositions"][model]
