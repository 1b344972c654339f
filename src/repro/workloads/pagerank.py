"""PageRank-shaped BE workload (paper §5.3 / Table 2).

"A memory- and compute-intensive graph algorithm execution" at 42 GB
RSS.  Large-scale graph processing is "intensive irregular random
access" (paper §1): per super-step, every vertex pulls its in-neighbors'
ranks — index-array gathers whose page popularity follows the graph's
degree distribution.

Shape decisions:

* A synthetic power-law (Zipf-degree) graph stands in for the web graph;
  a vertex's *page* popularity equals its out-degree share, giving a
  heavy-tailed but broader-than-Memcached hot set.
* The VMA splits into an adjacency region (~85%, read-only gathers) and
  a rank region (~15%, swept sequentially with writes for the new
  ranks).
* Threads own disjoint vertex ranges (edge-parallel PageRank) — their
  *rank writes* are private, while hub-adjacency reads are shared.
* Steady full-rate issue (BE batch job).
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ServiceClass
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.zipf import ZipfSampler


class PageRankWorkload(Workload):
    """Degree-skewed gathers over adjacency + sequential rank sweeps."""

    def __init__(
        self,
        spec: WorkloadSpec | None = None,
        seed: int = 0,
        *,
        degree_skew: float = 0.8,
        rank_region_frac: float = 0.15,
        gather_fraction: float = 0.8,
    ) -> None:
        if spec is None:
            spec = WorkloadSpec(name="pagerank", service=ServiceClass.BE, rss_pages=4200)
        super().__init__(spec, seed)
        if not 0.0 < rank_region_frac < 1.0:
            raise ValueError("rank_region_frac must be in (0,1)")
        self.degree_skew = degree_skew
        self.rank_region_frac = rank_region_frac
        self.gather_fraction = gather_fraction
        self._adj_sampler: ZipfSampler | None = None
        self._adj_pages = 0
        self._rank_pages = 0

    def _on_bind(self) -> None:
        assert self.vma is not None
        n = self.spec.rss_pages
        self._rank_pages = max(int(n * self.rank_region_frac), 1)
        self._adj_pages = n - self._rank_pages
        self._adj_sampler = ZipfSampler(
            self._adj_pages,
            self.degree_skew,
            permute=True,
            rng=np.random.default_rng(self.seed),
            items=self.vma.vpns()[: self._adj_pages],
        )

    def _write_thread(self, tid: int, epoch: int, vpns: np.ndarray, writes: np.ndarray) -> int:
        assert self._adj_sampler is not None and self.vma is not None
        n = vpns.size
        rng = np.random.default_rng((self.seed, epoch, tid, 7))
        n_gather = int(n * self.gather_fraction)
        n_sweep = n - n_gather

        # Irregular gathers over the shared adjacency region.
        self._adj_sampler.sample(n_gather, rng, out=vpns[:n_gather])
        writes[:n_gather] = False

        # Sequential sweep over this thread's private rank slice.
        slice_pages = max(self._rank_pages // self.spec.n_threads, 1)
        slice_start = self.vma.start_vpn + self._adj_pages + tid * slice_pages
        slice_end = min(slice_start + slice_pages, self.vma.end_vpn)
        span = max(slice_end - slice_start, 1)
        sweep = vpns[n_gather:]
        np.remainder(np.arange(epoch * n_sweep, (epoch + 1) * n_sweep), span, out=sweep)
        sweep += slice_start
        # Rank updates: read old + write new → half the sweep writes.
        np.less(rng.random(n_sweep), 0.5, out=writes[n_gather:])
        return n

    def first_touch_tids(self) -> np.ndarray:
        """Rank slices are faulted in by their owning thread; the shared
        adjacency region by the (parallel) graph loader, round-robin."""
        slice_pages = max(self._rank_pages // self.spec.n_threads, 1)
        return self._sharded_first_touch(self._adj_pages, slice_pages)

    def write_fraction(self) -> float:
        return (1.0 - self.gather_fraction) * 0.5

    def wss_pages(self) -> int:
        """Hot adjacency hubs + the rank vectors."""
        hub_pages = int(self._adj_pages * 0.3) if self._adj_pages else int(self.spec.rss_pages * 0.25)
        return hub_pages + self._rank_pages
