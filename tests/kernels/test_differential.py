"""Differential pinning: numba backend ≡ numpy reference, bit for bit.

The digests cover the full frozen golden matrix plus a 25-case fuzz
campaign (random scenarios + invariant oracle), hashed inside a
subprocess per backend since selection is import-time.  When numba is
absent the cross-backend test skips with a reason — the ``repro[fast]``
CI leg is where it must pass — while the python-leg sanity checks
always run.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
WORKER = pathlib.Path(__file__).with_name("worker.py")
HAVE_NUMBA = importlib.util.find_spec("numba") is not None


def _digest(backend: str, goldens: int, fuzz_runs: int, timeout: float = 1800) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, REPRO_KERNELS=backend)
    proc = subprocess.run(
        [
            sys.executable, str(WORKER),
            "--goldens", str(goldens), "--fuzz-runs", str(fuzz_runs),
        ],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, f"worker failed under {backend}:\n{proc.stderr[-3000:]}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_python_leg_digest_reproducible():
    """Two subprocesses of the reference backend agree (digest sanity)."""
    a = _digest("python", 2, 0)
    b = _digest("python", 2, 0)
    assert a["backend"] == b["backend"] == "python"
    assert a["n_goldens"] == 2
    assert a["digest"] == b["digest"]


@pytest.mark.skipif(
    not HAVE_NUMBA,
    reason="numba not installed — the repro[fast] CI leg runs the cross-backend differential",
)
def test_numba_vs_python_goldens_and_fuzz_bit_identical():
    py = _digest("python", -1, 25)
    nb = _digest("numba", -1, 25)
    assert py["backend"] == "python" and nb["backend"] == "numba"
    assert py["n_goldens"] == nb["n_goldens"] == 10
    assert py["digest"] == nb["digest"], (
        "numba kernels diverged from the numpy reference over the golden "
        "matrix + 25-case fuzz campaign"
    )
