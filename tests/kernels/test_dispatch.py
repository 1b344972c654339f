"""Backend selection: the ``REPRO_KERNELS`` contract, and the kernel registry.

Selection happens at import time, so every selection case runs in a
fresh subprocess with the environment it is testing.  The registry
guard reads the backends as text, so it runs without numba.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import pathlib
import re
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



def _top_level_defs(tree: ast.Module) -> dict[str, ast.FunctionDef]:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_every_kernel_pair_is_defined_warmed_and_called():
    """Read as text, so it runs without numba: each ``KERNEL_NAMES``
    entry has a body in both backends, is compiled by ``warmup()``, and
    is still called from outside the kernel package.  A pair whose last
    caller goes fails here instead of lingering."""
    from repro.kernels import KERNEL_NAMES

    pkg = pathlib.Path(SRC) / "repro"
    kdir = pkg / "kernels"
    np_defs = _top_level_defs(ast.parse((kdir / "np_backend.py").read_text()))
    nb_defs = _top_level_defs(ast.parse((kdir / "nb_backend.py").read_text()))
    warmed = {
        node.func.id
        for node in ast.walk(nb_defs["warmup"])
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    callers = "\n".join(
        path.read_text() for path in sorted(pkg.rglob("*.py")) if kdir not in path.parents
    )
    for name in KERNEL_NAMES:
        assert name in np_defs, f"{name}: no def in np_backend.py"
        assert name in nb_defs, f"{name}: no def in nb_backend.py"
        assert name in warmed, f"{name}: nb_backend.warmup() does not call it"
        assert re.search(rf"\bkernels\.{name}\b", callers), (
            f"{name}: nothing outside repro/kernels/ calls kernels.{name}"
        )
