"""Backend selection: the ``REPRO_KERNELS`` contract.

Selection happens at import time, so every case runs in a fresh
subprocess with the environment it is testing.
"""

from __future__ import annotations

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")
HAVE_NUMBA = importlib.util.find_spec("numba") is not None
PROBE = "import repro.kernels as k; print(k.BACKEND)"


def _probe(value: str | None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC)
    if value is None:
        env.pop("REPRO_KERNELS", None)
    else:
        env["REPRO_KERNELS"] = value
    return subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, timeout=300
    )


def test_python_forces_numpy_backend():
    proc = _probe("python")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "python"


@pytest.mark.parametrize("value", [None, "auto"])
def test_auto_prefers_numba_when_importable(value):
    proc = _probe(value)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ("numba" if HAVE_NUMBA else "python")


def test_bogus_mode_fails_loudly():
    proc = _probe("turbo")
    assert proc.returncode != 0
    assert "REPRO_KERNELS" in proc.stderr


def test_numba_forced():
    """``numba`` must either load numba or refuse to run — never fall back."""
    proc = _probe("numba")
    if HAVE_NUMBA:
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "numba"
    else:
        assert proc.returncode != 0
        assert "numba" in proc.stderr.lower()

