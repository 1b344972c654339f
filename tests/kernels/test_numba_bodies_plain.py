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


@pytest.mark.parametrize("n, skew", [(1, 0.99), (700, 0.99), (300_000, 0.0)])
def test_zipf_invert_body_matches_numpy(plain_nb, n, skew):
    """Both finishing paths: 300k ranks make most buckets wide, and the
    draws include every bucket's lower edge and the last bucket."""
    from repro.workloads.zipf import ZipfSampler

    s = ZipfSampler(n, skew)
    m = s._LUT_BUCKETS
    edges = np.arange(0, m, 97, dtype=np.float64) / m
    u = np.concatenate([np.random.default_rng(n).random(500), edges, [1.0 - 2.0**-53]])
    got = plain_nb.zipf_invert(s._cdf, s._lut, s._wide, m, u)
    np.testing.assert_array_equal(got, np_backend.zipf_invert(s._cdf, s._lut, s._wide, m, u))
    np.testing.assert_array_equal(got, np.searchsorted(s._cdf, u, side="right"))


@pytest.mark.parametrize("sizes", [(0, 0), (1,), (5, 0, 9), (60, 40, 0, 80)])
def test_plan_segment_unique_body_matches_numpy(plain_nb, sizes):
    rng = np.random.default_rng(len(sizes))
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    span = 13
    key = rng.integers(0, span, int(offsets[-1])) << 1 | (rng.random(int(offsets[-1])) < 0.3)
    scratch = np.zeros(2 * span, dtype=bool)
    got = plain_nb.plan_segment_unique(key, offsets, scratch)
    assert not scratch.any()
    want = np_backend.plan_segment_unique(key, offsets, scratch)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
