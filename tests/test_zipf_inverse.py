"""LUT-accelerated inverse-CDF must equal ``np.searchsorted`` exactly.

Workload traffic generation relies on ``ZipfSampler._invert`` returning
the very integer ``np.searchsorted(cdf, u, side='right')`` would, for
every float input — any divergence silently changes which pages a
workload touches and breaks bit-identical replay.  These tests pin the
equality on random draws, adversarial inputs sitting exactly on LUT
bucket boundaries, inputs equal to CDF steps themselves, and supports
that send most samples down each of the kernel's two finishing branches,
and they pin the counted lookup table to the ``searchsorted`` grid it
replaces.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.zipf import ZipfSampler


def _reference(sampler: ZipfSampler, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(sampler._cdf, u, side="right").astype(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 24, 221, 1000, 65_537, 300_000])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.99, 6.0])
def test_lut_equals_searchsorted_over_the_bucket_grid(n: int, s: float) -> None:
    # The table is counted from ceil(cdf * M), not searched; it must
    # still be searchsorted's answer at every bucket edge b/M.  s = 6.0
    # reaches cdf == 1.0 long before the last rank (many steps share
    # bucket M); n = 300k has more ranks than buckets.
    sampler = ZipfSampler(n, s)
    m = sampler._LUT_BUCKETS
    grid = np.arange(m + 1, dtype=np.float64) / m
    want = np.searchsorted(sampler._cdf, grid, side="right").astype(np.int64)
    assert sampler._lut.dtype == np.int64
    assert sampler._lut.shape == (m + 1,)
    np.testing.assert_array_equal(sampler._lut, want)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 65_537])
@pytest.mark.parametrize("s", [0.0, 0.5, 0.99, 1.2])
def test_invert_matches_searchsorted_on_random_draws(n: int, s: float) -> None:
    sampler = ZipfSampler(n, s)
    rng = np.random.default_rng(42)
    u = rng.random(20_000)
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def _bracket_widths(sampler: ZipfSampler, u: np.ndarray) -> np.ndarray:
    """``lut[b+1] - lut[b]`` for each sample's bucket ``b``: 0 needs no
    CDF read, 1 takes the one-compare branch, more takes searchsorted."""
    b = (u * sampler._LUT_BUCKETS).astype(np.int64)
    return sampler._lut[b + 1] - sampler._lut[b]


@pytest.mark.parametrize(
    "n, s, branch",
    [
        # 300k ranks over 2**16 buckets: every bucket holds several steps
        (300_000, 0.0, "wide"),
        # mild skew, 50k ranks: each step has a bucket to itself
        (50_000, 0.2, "one"),
    ],
)
def test_invert_branches_match_searchsorted(n: int, s: float, branch: str) -> None:
    sampler = ZipfSampler(n, s)
    u = np.random.default_rng(11).random(50_000)
    width = _bracket_widths(sampler, u)
    taken = (width > 1) if branch == "wide" else (width == 1)
    assert taken.mean() > 0.5
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def test_invert_matches_on_lut_bucket_boundaries() -> None:
    sampler = ZipfSampler(512, 0.99)
    m = sampler._LUT_BUCKETS
    # every representable bucket edge b/m (exact binary floats), plus
    # the floats immediately next to a sample of them
    edges = np.arange(m, dtype=np.float64) / m
    rng = np.random.default_rng(7)
    some = rng.choice(edges[1:], size=1024, replace=False)
    u = np.concatenate([edges, np.nextafter(some, 0.0), np.nextafter(some, 1.0)])
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def test_invert_matches_on_cdf_steps() -> None:
    sampler = ZipfSampler(257, 0.8)
    cdf = sampler._cdf
    inside = cdf[cdf < 1.0]
    u = np.concatenate([inside, np.nextafter(inside, 0.0), np.nextafter(inside, 1.0)])
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def test_invert_matches_at_extremes() -> None:
    sampler = ZipfSampler(1000, 0.99)
    u = np.array([0.0, np.nextafter(0.0, 1.0), 0.5, np.nextafter(1.0, 0.0)])
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def test_sample_consumes_one_uniform_block_per_call() -> None:
    # the RNG-stream-identity contract: sample(size) must consume
    # exactly rng.random(size) and nothing else
    sampler = ZipfSampler(4096, 0.99)
    r1 = np.random.default_rng(3)
    r2 = np.random.default_rng(3)
    out = sampler.sample(777, r1)
    u = r2.random(777)
    np.testing.assert_array_equal(out, np.clip(_reference(sampler, u), 0, sampler.n - 1))
    # both generators are now in the same state
    assert r1.random() == r2.random()


class _TopDraws:
    """A generator stand-in whose every uniform is the largest double below 1."""

    U = 1.0 - 2.0**-53

    def random(self, size: int) -> np.ndarray:
        return np.full(size, self.U)


@pytest.mark.parametrize("n", [1, 2, 3, 1000, 65_537])
@pytest.mark.parametrize("s", [0.0, 0.99, 6.0])
def test_largest_draw_stays_in_range_without_a_clip(n: int, s: float) -> None:
    # cdf[-1] is x / x == 1.0 exactly and every draw is below 1, so no
    # inversion can return n; sample() relies on that instead of clipping
    sampler = ZipfSampler(n, s)
    assert sampler._cdf[-1] == 1.0
    u = np.array([_TopDraws.U])
    rank = int(sampler._invert(u.copy())[0])
    assert rank == int(_reference(sampler, u)[0]) <= n - 1
    if n == 1 or sampler._cdf[-2] < _TopDraws.U:
        assert rank == n - 1  # the CDF's last step is the only one above u
    assert sampler.sample(4, _TopDraws()).tolist() == [rank] * 4
