"""Liblinear-shaped BE workload (paper §5.3 / Table 2).

"Linear classification of the KDD12 dataset" at 69 GB RSS.  Sparse
linear training has three access components:

* **dataset scans** — every example streamed once per pass (sequential,
  read-only, private per training shard): the bulk of the footprint,
  individually low-reuse but *persistently touched*;
* **feature weights** — per nonzero feature of every example, the weight
  vector entry is read and updated.  KDD12's feature popularity is
  heavy-tailed, so a sizeable slab of feature pages sees high, sustained
  traffic — this is what makes Liblinear "appear persistently hot" to
  absolute-count profilers and monopolize fast memory (Observation #1);
* threads share the feature region (hogwild-style) and own disjoint
  example shards.

The workload saturates its access budget (BE: "sustained and frequent
memory accesses") — co-location experiments typically give it a higher
intensity than the LC co-runner via ``accesses_per_thread``.
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ServiceClass
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.zipf import ZipfSampler


class LiblinearWorkload(Workload):
    """Sharded dataset scans + Zipf-popular shared feature weights."""

    def __init__(
        self,
        spec: WorkloadSpec | None = None,
        seed: int = 0,
        *,
        feature_region_frac: float = 0.20,
        feature_access_frac: float = 0.5,
        feature_skew: float = 0.6,
        feature_write_fraction: float = 0.5,
    ) -> None:
        if spec is None:
            spec = WorkloadSpec(name="liblinear", service=ServiceClass.BE, rss_pages=6900)
        super().__init__(spec, seed)
        if not 0.0 < feature_region_frac < 1.0:
            raise ValueError("feature_region_frac must be in (0,1)")
        if not 0.0 <= feature_access_frac <= 1.0:
            raise ValueError("feature_access_frac must be in [0,1]")
        self.feature_region_frac = feature_region_frac
        self.feature_access_frac = feature_access_frac
        self.feature_skew = feature_skew
        self.feature_write_fraction = feature_write_fraction
        self._feature_pages = 0
        self._data_pages = 0
        self._feature_sampler: ZipfSampler | None = None

    def _on_bind(self) -> None:
        n = self.spec.rss_pages
        self._feature_pages = max(int(n * self.feature_region_frac), 1)
        self._data_pages = n - self._feature_pages
        self._feature_sampler = ZipfSampler(
            self._feature_pages,
            self.feature_skew,
            permute=True,
            rng=np.random.default_rng(self.seed),
        )

    def _thread_access(self, tid: int, n: int, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        assert self.vma is not None and self._feature_sampler is not None
        rng = np.random.default_rng((self.seed, epoch, tid, 13))
        n_feat = int(n * self.feature_access_frac)
        n_scan = n - n_feat

        # Sequential scan of this thread's private shard, position
        # carried across epochs (one training pass spans many epochs).
        shard_pages = max(self._data_pages // self.spec.n_threads, 1)
        shard_start = self.vma.start_vpn + self._feature_pages + tid * shard_pages
        shard_end = min(shard_start + shard_pages, self.vma.end_vpn)
        span = max(shard_end - shard_start, 1)
        pos = (epoch * n_scan + np.arange(n_scan)) % span
        scan_vpns = shard_start + pos
        scan_writes = np.zeros(n_scan, dtype=bool)

        # Shared feature weights: popularity-skewed read-modify-writes.
        feat_vpns = self.vma.start_vpn + self._feature_sampler.sample(n_feat, rng)
        feat_writes = rng.random(n_feat) < self.feature_write_fraction

        vpns = np.concatenate([scan_vpns, feat_vpns])
        writes = np.concatenate([scan_writes, feat_writes])
        return vpns, writes

    def first_touch_tids(self) -> np.ndarray:
        """Shards are faulted in by their training thread; the shared
        feature region by whichever thread initializes it (round-robin)."""
        shard_pages = max(self._data_pages // self.spec.n_threads, 1)
        return self._sharded_first_touch(self._feature_pages, shard_pages)

    def write_fraction(self) -> float:
        return self.feature_access_frac * self.feature_write_fraction

    def wss_pages(self) -> int:
        """Popular feature pages plus the stripes being streamed."""
        if not self._feature_pages:
            return self.spec.rss_pages
        hot_features = max(int(self._feature_pages * 0.5), 1)
        return hot_features + self.spec.n_threads * 64
