"""Numba kernel bodies run as plain Python, where numba is not installed.

``nb_backend`` is loaded under an identity ``njit``, so its loops run
uncompiled and index-checked.  The compiled run is CI's ``fast-kernels``
job; this catches a body that reads out of bounds, which compiled numba
would not report.
"""

import importlib.util
import sys
import types

import numpy as np
import pytest

from repro.kernels import np_backend


@pytest.fixture
def plain_nb(monkeypatch):
    fake = types.ModuleType("numba")
    fake.njit = lambda *args, **kwargs: args[0] if args and callable(args[0]) else (lambda f: f)
    monkeypatch.setitem(sys.modules, "numba", fake)
    spec = importlib.util.spec_from_file_location(
        "nb_backend_plain", np_backend.__file__.replace("np_backend", "nb_backend")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [0, 1, 2, 7, 200])
def test_accumulate_unique_body_matches_numpy(plain_nb, n):
    rng = np.random.default_rng(n)
    vpns = rng.integers(0, 12, n).astype(np.int64)
    weights, write_weights = rng.random(n), rng.random(n)
    got = plain_nb.accumulate_unique(vpns, weights, write_weights)
    want = np_backend.accumulate_unique(vpns, weights, write_weights)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
