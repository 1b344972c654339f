"""Vectorized bounded-Zipf sampling.

``numpy``'s built-in ``Generator.zipf`` is unbounded and slow for the
truncated distributions tiered-memory studies use.  We precompute the
normalized CDF of ``P(k) ∝ (k+1)^{-s}`` over ``k ∈ [0, n)`` and a 2^16
bucket inverse-CDF lookup table once, and invert whole batches of
uniforms through the table: O(1) per sample where a bucket holds at
most one CDF step, ``searchsorted`` only for the samples whose bucket
holds more.  The table itself is counted, not searched: each rank's
first bucket is ``ceil(cdf * 2^16)``, exact because the bucket count is
a power of two, and one run-length pass lays the table out, O(n + 2^16)
per sampler.  The result is exactly ``searchsorted``'s, fully
vectorized, deterministic under a seeded generator.
"""

from __future__ import annotations

import numpy as np

from repro import kernels


class ZipfSampler:
    """Bounded Zipf(s) over ``[0, n)`` with optional permutation.

    Parameters
    ----------
    n:
        Support size (e.g. pages in the working set).
    s:
        Skew exponent; ``s=0`` degenerates to uniform.
    permute:
        When true, ranks are shuffled so hot items are scattered across
        the index space (realistic for hash-addressed stores); when
        false, index 0 is the hottest (convenient for tests).
    rng:
        Generator for the permutation draw (sampling itself takes the
        generator per call).
    """

    #: inverse-CDF lookup-table resolution (power of two: ``u * M``,
    #: ``cdf * M`` and the bucket boundaries b/M are then exact binary
    #: floats, so the table build and the bracket invariant below hold
    #: with equality, not approximately)
    _LUT_BUCKETS = 1 << 16

    def __init__(self, n: int, s: float = 0.99, *, permute: bool = False, rng: np.random.Generator | None = None) -> None:
        if n <= 0:
            raise ValueError("support size must be positive")
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
        # lut[b] = searchsorted(cdf, b/M, 'right'), the count of ranks
        # with cdf[i] <= b/M, so bucket b brackets the answer for any u
        # in [b/M, (b+1)/M):  lut[b] <= searchsorted(cdf, u) <= lut[b+1].
        # M is a power of two, so cdf[i] * M is exact and cdf[i] <= b/M
        # holds exactly when first[i] = ceil(cdf[i] * M) <= b.  Rank
        # count k then fills buckets [first[k-1], first[k]), with
        # first[-1] = 0 and first[n] = M + 1: one O(n + M) run-length
        # pass instead of M + 1 binary searches.
        m = self._LUT_BUCKETS
        first = np.ceil(self._cdf * m).astype(np.int64)
        self._lut = np.repeat(
            np.arange(n + 1, dtype=np.int64), np.diff(first, prepend=0, append=m + 1)
        )
        if permute:
            gen = rng if rng is not None else np.random.default_rng(0)
            self._perm: np.ndarray | None = gen.permutation(n)
        else:
            self._perm = None

    def _invert(self, u: np.ndarray) -> np.ndarray:
        """Exactly ``np.searchsorted(self._cdf, u, side='right')``.

        The LUT narrows each sample to a short index range in O(1); a
        sample whose bucket holds one CDF step needs one compare, and
        only buckets holding several fall back to ``searchsorted``.
        The result is the same integer ``searchsorted`` returns for
        every input — callers rely on that for bit-identical
        RNG-stream consumption.  The arithmetic lives in the kernel
        tier (both backends return the exact ``searchsorted`` integer
        for every input).
        """
        return kernels.zipf_invert(self._cdf, self._lut, self._LUT_BUCKETS, u)

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` indices in ``[0, n)``."""
        if size < 0:
            raise ValueError("size must be non-negative")
        if size == 0:
            return np.empty(0, dtype=np.int64)
        u = rng.random(size)
        ranks = self._invert(u)
        if self._perm is not None:
            return self._perm[ranks]
        return ranks
