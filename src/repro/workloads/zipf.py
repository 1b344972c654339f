"""Vectorized bounded-Zipf sampling.

``numpy``'s built-in ``Generator.zipf`` is unbounded and slow for the
truncated distributions tiered-memory studies use.  We precompute the
normalized CDF of ``P(k) ∝ (k+1)^{-s}`` over ``k ∈ [0, n)`` and a 2^16
bucket inverse-CDF lookup table once, and invert whole batches of
uniforms through the table: one table gather and one CDF compare per
sample where a bucket holds at most one CDF step, ``searchsorted`` only
for the samples whose bucket holds more (a one-byte flag per bucket
marks those).  The table itself is counted, not searched: each rank's
first bucket is ``ceil(cdf * 2^16)``, exact because the bucket count is
a power of two, and one run-length pass lays the table out, O(n + 2^16)
per sampler.  The rank is exactly ``searchsorted``'s, fully vectorized,
deterministic under a seeded generator.

A sampler draws *items*, not ranks: ``items[k]`` is what rank ``k``
names.  Workloads build their samplers at bind time with the VMA base
and the hot-set permutation folded into ``items``, so one gather turns
the ranks into vpns.
"""

from __future__ import annotations

import numpy as np

from repro import kernels


class ZipfSampler:
    """Bounded Zipf(s) over ``n`` items.

    Parameters
    ----------
    n:
        Support size (e.g. pages in the working set).
    s:
        Skew exponent; ``s=0`` degenerates to uniform.
    permute:
        When true, ranks are shuffled over the items so hot items are
        scattered across the index space (realistic for hash-addressed
        stores); when false, ``items[0]`` is the hottest (convenient
        for tests).
    rng:
        Generator for the permutation draw (sampling itself takes the
        generator per call).
    items:
        The int64 value of each rank before any permutation (default
        ``0 .. n-1``).  Kept as given, not copied, unless permuted.
    """

    #: inverse-CDF lookup-table resolution (power of two: ``u * M``,
    #: ``cdf * M`` and the bucket boundaries b/M are then exact binary
    #: floats, so the table build and the bracket invariant below hold
    #: with equality, not approximately)
    _LUT_BUCKETS = 1 << 16

    def __init__(
        self,
        n: int,
        s: float = 0.99,
        *,
        permute: bool = False,
        rng: np.random.Generator | None = None,
        items: np.ndarray | None = None,
    ) -> None:
        if n <= 0:
            raise ValueError("support size must be positive")
        if n >= 2**31:
            raise ValueError("support size must fit the int32 lookup table")
        if s < 0:
            raise ValueError("skew must be non-negative")
        self.n = n
        self.s = s
        weights = (np.arange(1, n + 1, dtype=np.float64)) ** (-s)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        # x / x is exactly 1.0, and every u drawn is < 1, so the
        # inversion never returns a rank above n - 1.
        assert self._cdf[-1] == 1.0
        # grid[b] = searchsorted(cdf, b/M, 'right'), the count of ranks
        # with cdf[i] <= b/M, so bucket b brackets the answer for any u
        # in [b/M, (b+1)/M):  grid[b] <= searchsorted(cdf, u) <= grid[b+1].
        # M is a power of two, so cdf[i] * M is exact and cdf[i] <= b/M
        # holds exactly when first[i] = ceil(cdf[i] * M) <= b.  Rank
        # count k then fills buckets [first[k-1], first[k]), with
        # first[-1] = 0 and first[n] = M + 1: one O(n + M) run-length
        # pass instead of M + 1 binary searches.  The sampler keeps
        # grid[:M] as int32 (grid[b] <= n - 1 for b < M, since
        # b/M < 1.0 = cdf[-1]) and a flag per bucket wider than one step.
        m = self._LUT_BUCKETS
        first = np.ceil(self._cdf * m).astype(np.int64)
        grid = np.repeat(
            np.arange(n + 1, dtype=np.int32), np.diff(first, prepend=0, append=m + 1)
        )
        self._lut = grid[:m]
        self._wide = np.diff(grid) > 1
        if items is None:
            items = np.arange(n, dtype=np.int64)
        else:
            items = np.asarray(items, dtype=np.int64)
            if items.shape != (n,):
                raise ValueError(f"items must have shape ({n},), got {items.shape}")
        if permute:
            gen = rng if rng is not None else np.random.default_rng(0)
            items = items[gen.permutation(n)]
        #: the value each rank draws
        self.items = items

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """Exactly ``np.searchsorted(self._cdf, u, side='right')``.

        The arithmetic lives in the kernel tier; both backends return
        the integer ``searchsorted`` returns for every input, which
        bit-identical RNG-stream consumption relies on.
        """
        return kernels.zipf_invert(self._cdf, self._lut, self._wide, self._LUT_BUCKETS, u)

    def sample(self, size: int, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        """Draw ``size`` items; into ``out`` (an int64 array of ``size``)
        when given.  Consumes exactly ``rng.random(size)``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return np.empty(0, dtype=np.int64) if out is None else out
        ranks = self._invert(rng.random(size))
        # every rank is < n, so "clip" never clips; it only spares the
        # buffered copy numpy makes for ``out`` under the default mode
        return np.take(self.items, ranks, out=out, mode="clip")
