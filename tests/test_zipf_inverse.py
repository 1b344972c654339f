"""LUT-accelerated inverse-CDF must equal ``np.searchsorted`` exactly.

Workload traffic generation relies on ``ZipfSampler._invert`` returning
the very integer ``np.searchsorted(cdf, u, side='right')`` would, for
every float input — any divergence silently changes which pages a
workload touches and breaks bit-identical replay.  These tests pin the
equality on random draws, adversarial inputs sitting exactly on LUT
bucket boundaries, on the edges of the wide buckets and in the last
bucket, inputs equal to CDF steps themselves, and supports that send
most samples through empty, one-step and wide buckets; they pin the
counted int32 table and its wide flags to the ``searchsorted`` grid
they replace, and the tables' size to the int64 table's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.zipf import ZipfSampler


def _reference(sampler: ZipfSampler, u: np.ndarray) -> np.ndarray:
    return np.searchsorted(sampler._cdf, u, side="right").astype(np.int64)


def _grid(sampler: ZipfSampler) -> np.ndarray:
    """``searchsorted`` at every bucket edge b/M, b = 0 .. M."""
    m = sampler._LUT_BUCKETS
    grid = np.arange(m + 1, dtype=np.float64) / m
    return np.searchsorted(sampler._cdf, grid, side="right").astype(np.int64)


@pytest.mark.parametrize("n", [1, 2, 3, 24, 221, 1000, 65_537, 300_000])
@pytest.mark.parametrize("s", [0.0, 0.3, 0.99, 6.0])
def test_lut_equals_searchsorted_over_the_bucket_grid(n: int, s: float) -> None:
    # The table is counted from ceil(cdf * M), not searched; it must
    # still be searchsorted's answer at every bucket edge b/M, and the
    # wide flags must mark exactly the buckets holding several steps.
    # s = 6.0 reaches cdf == 1.0 long before the last rank (many steps
    # share bucket M); n = 300k has more ranks than buckets.
    sampler = ZipfSampler(n, s)
    m = sampler._LUT_BUCKETS
    want = _grid(sampler)
    assert sampler._lut.dtype == np.int32
    assert sampler._lut.shape == (m,)
    np.testing.assert_array_equal(sampler._lut, want[:m])
    assert sampler._wide.dtype == np.bool_
    np.testing.assert_array_equal(sampler._wide, np.diff(want) > 1)


@pytest.mark.parametrize("n", [1, 1000, 65_537, 300_000])
def test_tables_hold_no_more_than_an_int64_lut(n: int) -> None:
    # the int32 table plus the flag table replace an (M + 1)-entry int64
    # table; the items replace the permutation they are built from
    sampler = ZipfSampler(n, 0.99, permute=True, rng=np.random.default_rng(0))
    m = sampler._LUT_BUCKETS
    table = sampler._lut.base if sampler._lut.base is not None else sampler._lut
    assert table.nbytes + sampler._wide.nbytes <= 8 * (m + 1)
    assert sampler.items.nbytes == 8 * n and sampler.items.base is None
    items = np.arange(10, 10 + n, dtype=np.int64)
    assert ZipfSampler(n, 0.99, items=items).items is items


@pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 65_537])
@pytest.mark.parametrize("s", [0.0, 0.5, 0.99, 1.2])
def test_invert_matches_searchsorted_on_random_draws(n: int, s: float) -> None:
    sampler = ZipfSampler(n, s)
    rng = np.random.default_rng(42)
    u = rng.random(20_000)
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def _bracket_widths(sampler: ZipfSampler, u: np.ndarray) -> np.ndarray:
    """Steps in each sample's bucket ``b``: 0 or 1 finish with one
    compare, more take searchsorted (the bucket's wide flag)."""
    b = (u * sampler._LUT_BUCKETS).astype(np.int64)
    grid = _grid(sampler)
    return grid[b + 1] - grid[b]


@pytest.mark.parametrize(
    "n, s, branch",
    [
        # 300k ranks over 2**16 buckets: every bucket holds several steps
        (300_000, 0.0, "wide"),
        # mild skew, 50k ranks: each step has a bucket to itself
        (50_000, 0.2, "one"),
        # few ranks: most buckets hold no step at all
        (300, 0.5, "empty"),
    ],
)
def test_invert_branches_match_searchsorted(n: int, s: float, branch: str) -> None:
    sampler = ZipfSampler(n, s)
    u = np.random.default_rng(11).random(50_000)
    width = _bracket_widths(sampler, u)
    taken = {"wide": width > 1, "one": width == 1, "empty": width == 0}[branch]
    assert taken.mean() > 0.5
    b = (u * sampler._LUT_BUCKETS).astype(np.int64)
    np.testing.assert_array_equal(sampler._wide[b], width > 1)
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def test_invert_matches_on_wide_bucket_edges() -> None:
    # every edge of every wide bucket, the floats beside them, and each
    # CDF step inside the wide buckets: the searchsorted fallback path
    sampler = ZipfSampler(90_000, 0.3)
    m = sampler._LUT_BUCKETS
    wide = np.flatnonzero(sampler._wide)
    assert wide.size > 1000
    lo = wide / m
    hi = (wide + 1) / m
    steps = sampler._cdf[(sampler._cdf * m).astype(np.int64) < m]
    steps = steps[sampler._wide[(steps * m).astype(np.int64)]]
    u = np.concatenate([
        lo, np.nextafter(lo, 1.0), np.nextafter(hi, 0.0)[hi < 1.0],
        steps, np.nextafter(steps, 0.0), np.nextafter(steps, 1.0)[steps < np.nextafter(1.0, 0.0)],
    ])
    u = u[u < 1.0]
    np.testing.assert_array_equal(sampler._invert(u.copy()), _reference(sampler, u))


def test_last_bucket_inverts_exactly() -> None:
    # the table has M entries; the last bucket's bracket top is n
    for n, s in ((300_000, 0.0), (70_000, 0.0), (5, 0.99)):
        sampler = ZipfSampler(n, s)
        m = sampler._LUT_BUCKETS
        u = np.linspace((m - 1) / m, np.nextafter(1.0, 0.0), 4097)
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


def test_sample_gathers_items_into_out() -> None:
    # items fold a base and a permutation in: one gather yields them,
    # written into ``out`` when given
    perm = np.random.default_rng(5).permutation(4096)
    sampler = ZipfSampler(
        4096, 0.99, permute=True, rng=np.random.default_rng(5),
        items=np.arange(7000, 7000 + 4096, dtype=np.int64),
    )
    np.testing.assert_array_equal(sampler.items, 7000 + perm)
    u = np.random.default_rng(4).random(300)
    buf = np.full(302, -1, dtype=np.int64)
    got = sampler.sample(300, np.random.default_rng(4), out=buf[1:301])
    assert got.base is buf
    np.testing.assert_array_equal(buf[1:301], 7000 + perm[_reference(sampler, u)])
    assert buf[0] == buf[301] == -1
    assert sampler.sample(0, np.random.default_rng(4), out=buf[:0]).size == 0


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
