"""Memcached-shaped LC workload (paper §5.3 / Table 2).

"A high-performance key-value store with 90% GETs, 10% SETs, and a hot
key set accessed 90% of the time", driven by YCSB-C at 51 GB RSS.

Shape decisions:

* The key space maps onto the VMA's pages hash-style (hot keys
  scattered, not clustered) — a permuted Zipf over the full RSS whose
  skew is tuned so the hottest ``hot_frac`` of pages receive
  ``hot_mass`` of the traffic (defaults 10% / 90%).
* All threads serve the same key space (server threads pull from one
  connection pool) → pages are *shared* across threads, read-mostly.
* LC burstiness: the issue rate oscillates between a low idle floor and
  full bursts (diurnal-ish square wave + jitter), so mean utilization
  stays moderate and burstiness high — the utilization pattern the
  paper's LC/BE classification keys on.
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ServiceClass
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.zipf import ZipfSampler


class MemcachedWorkload(Workload):
    """YCSB-C-style KV service: hot keyset, 90/10 read/write, bursty.

    The paper's description is a two-tier popularity model — "a hot key
    set accessed 90% of the time" — so traffic splits Bernoulli(0.9)
    between the hot set (mild Zipf within: all hot pages carry
    comparable heat) and the cold remainder (uniform).  The comparable
    per-page heat inside the hot set is what makes the cold-page dilemma
    sharp: a global absolute-count threshold admits or evicts the keyset
    *wholesale* once a co-runner's traffic brackets it.
    """

    def __init__(
        self,
        spec: WorkloadSpec | None = None,
        seed: int = 0,
        *,
        get_fraction: float = 0.9,
        hot_frac: float = 0.10,
        hot_mass: float = 0.90,
        burst_period_epochs: int = 8,
        idle_rate: float = 0.35,
    ) -> None:
        if spec is None:
            spec = WorkloadSpec(name="memcached", service=ServiceClass.LC, rss_pages=5100)
        super().__init__(spec, seed)
        if not 0.0 <= get_fraction <= 1.0:
            raise ValueError("get_fraction must be in [0,1]")
        self.get_fraction = get_fraction
        self.hot_frac = hot_frac
        self.hot_mass = hot_mass
        self.burst_period_epochs = burst_period_epochs
        self.idle_rate = idle_rate
        #: cold keys' vpns; the hot keys' vpns are the sampler's items
        self._cold_vpns: np.ndarray | None = None
        self._hot_sampler: ZipfSampler | None = None

    def _on_bind(self) -> None:
        assert self.vma is not None
        n = self.spec.rss_pages
        n_hot = max(int(n * self.hot_frac), 1)
        # Hash-addressed store: hot keys scatter across the page space.
        vpns = np.random.default_rng(self.seed).permutation(n).astype(np.int64)
        vpns += self.vma.start_vpn
        self._cold_vpns = vpns[n_hot:] if n_hot < n else vpns[:0]
        # Mild skew within the keyset; every hot page stays clearly hot.
        self._hot_sampler = ZipfSampler(n_hot, 0.3, items=vpns[:n_hot])

    def issue_rate(self, epoch: int) -> float:
        """Square-wave bursts with jitter: LC services idle between peaks."""
        phase = epoch % self.burst_period_epochs
        base = 1.0 if phase < self.burst_period_epochs // 2 else self.idle_rate
        jitter = float(self._rng.uniform(-0.05, 0.05))
        return float(np.clip(base + jitter, 0.05, 1.0))

    def _write_thread(self, tid: int, epoch: int, vpns: np.ndarray, writes: np.ndarray) -> int:
        assert self._hot_sampler is not None and self._cold_vpns is not None
        n = vpns.size
        rng = np.random.default_rng((self.seed, epoch, tid))
        to_hot = rng.random(n) < self.hot_mass
        n_hot = int(np.count_nonzero(to_hot))
        vpns[to_hot] = self._hot_sampler.sample(n_hot, rng)
        n_cold = n - n_hot
        if n_cold:
            cold = self._cold_vpns if self._cold_vpns.size else self._hot_sampler.items
            vpns[~to_hot] = cold[rng.integers(0, cold.size, size=n_cold)]
        # SETs are writes; GETs reads.  Same key space for both.
        np.greater_equal(rng.random(n), self.get_fraction, out=writes)
        return n

    def write_fraction(self) -> float:
        return 1.0 - self.get_fraction

    def wss_pages(self) -> int:
        """The hot keyset is the effective working set."""
        return max(int(self.spec.rss_pages * self.hot_frac), 1)
