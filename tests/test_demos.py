"""The demos print byte-identical stdout: each runs as a script and its
output's sha256 is compared with the digest recorded for it."""

import hashlib
import os
import subprocess
import sys

import pytest

import loopgas

SRC = os.path.dirname(os.path.dirname(loopgas.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")

DEMO_STDOUT = [
    ("01_special_points.py",
     "f20302af68927e50d2d031e32fce474dc0ad67776f57a3a007a7dc424f118165"),
    ("02_channel_duality.py",
     "bc4e2fe2ffca18255bff6324727a6941b888785cac258d0bbd561a86c5df6665"),
    ("03_characters.py",
     "4658af9562744a9dd3bb291900e6007c75f7c441c37abaa313673034229fd2ef"),
    ("04_percolation_crossing.py",
     "bdeeeeb97c1ac4655c1868a160361443b82b7e68b7ccafe016e35ad49b548ed2"),
    ("05_self_avoiding_loops.py",
     "b2299b3c096e52f88abc3be8efd1ef119e3ded45ef8d90b7628cd2c5cf2fe3b8"),
    ("06_logarithmic_sector.py",
     "46587eab29273cba7cd3814e8477f0e80fd5b4100ebdf7f645807adad48a2bb8"),
    ("07_boundary_energy.py",
     "38bf7fabf7fc8087e86788b506f876af43989791ac519df3692c950741f55bb8"),
]


@pytest.mark.parametrize("demo,digest", DEMO_STDOUT, ids=[d for d, _ in DEMO_STDOUT])
def test_demo_stdout_bytes(demo, digest):
    out = subprocess.run(
        [sys.executable, os.path.join(DEMOS, demo)], capture_output=True,
        check=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=120,
    ).stdout
    assert hashlib.sha256(out).hexdigest() == digest
