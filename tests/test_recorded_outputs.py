"""Every recorded CLI command still prints the bytes it printed when recorded.

`perfbench/data/cli_pool.json` and `sweep_pool.json` hold argv lists with the
sha256 of their stdout.  Each command runs in-process through `cli.main`; the
files are only read."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from loopgas.cli import main

DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def _stdout_sha256(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("pool", ["cli_pool.json", "sweep_pool.json"])
def test_recorded_stdout_bytes(pool):
    entries = json.loads((DATA / pool).read_text())
    assert entries
    bad = [" ".join(e["argv"]) for e in entries
           if _stdout_sha256(e["argv"]) != (0, e["sha256"])]
    assert not bad, f"{len(bad)} of {len(entries)} commands changed:\n" + "\n".join(bad)
