"""The Nomad-style WSS/RSS microbenchmark (paper §5.2, Fig. 8).

"1) allocating data to specific segments of the tiered memory; 2)
running tests with various working set size (WSS) and RSS values; and 3)
generating memory accesses to the WSS data that mimic real-world memory
access patterns with a Zipfian distribution."

Three standard scenarios (small / medium / large WSS relative to the
fast tier) are provided via :func:`scenario`.  The read ratio is a
parameter so the same generator drives the Fig. 4 sync/async sweeps.
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import ServiceClass
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.zipf import ZipfSampler


class MicrobenchWorkload(Workload):
    """Zipfian accesses over a WSS subset of an RSS region."""

    def __init__(
        self,
        spec: WorkloadSpec | None = None,
        seed: int = 0,
        *,
        wss_pages: int | None = None,
        zipf_skew: float = 0.99,
        read_ratio: float = 0.8,
        shared_threads: bool = True,
    ) -> None:
        if spec is None:
            spec = WorkloadSpec(name="microbench", service=ServiceClass.BE, rss_pages=4096)
        super().__init__(spec, seed)
        self._wss = wss_pages if wss_pages is not None else spec.rss_pages // 4
        if self._wss <= 0 or self._wss > spec.rss_pages:
            raise ValueError("WSS must be in (0, RSS]")
        if not 0.0 <= read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0,1]")
        self.zipf_skew = zipf_skew
        self.read_ratio = read_ratio
        #: shared: all threads hit one WSS; private: disjoint per-thread slices
        self.shared_threads = shared_threads
        self._sampler: ZipfSampler | None = None

    def _on_bind(self) -> None:
        support = self._wss if self.shared_threads else max(self._wss // self.spec.n_threads, 1)
        self._sampler = ZipfSampler(support, self.zipf_skew, permute=True, rng=np.random.default_rng(self.seed))

    def _thread_access(self, tid: int, n: int, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        assert self._sampler is not None and self.vma is not None
        rng = np.random.default_rng((self.seed, epoch, tid, 29))
        offsets = self._sampler.sample(n, rng)
        if self.shared_threads:
            vpns = self.vma.start_vpn + offsets
        else:
            slice_pages = max(self._wss // self.spec.n_threads, 1)
            vpns = self.vma.start_vpn + tid * slice_pages + offsets
        writes = rng.random(n) >= self.read_ratio
        return vpns, writes

    def first_touch_tids(self) -> np.ndarray:
        """Private mode: each thread faults in its own WSS slice."""
        if self.shared_threads:
            return super().first_touch_tids()
        slice_pages = max(self._wss // self.spec.n_threads, 1)
        return self._sharded_first_touch(0, slice_pages)

    def write_fraction(self) -> float:
        return 1.0 - self.read_ratio

    def wss_pages(self) -> int:
        return self._wss


def scenario(
    name: str,
    fast_tier_pages: int,
    *,
    seed: int = 0,
    read_ratio: float = 0.8,
    n_threads: int = 8,
    accesses_per_thread: int = 20_000,
    populate_tier: int = 1,
) -> MicrobenchWorkload:
    """The Fig. 8 scenarios, sized relative to the fast tier.

    * ``small``  — WSS fits comfortably (50% of fast tier).
    * ``medium`` — WSS ≈ fast tier (100%); tiering is exercised hard.
    * ``large``  — WSS is 2× the fast tier; most accesses must miss.

    RSS is 4× WSS in every case, so plenty of genuinely cold data
    exists; data starts on the slow tier (``populate_tier=1``) per the
    Nomad methodology, so promotion is actually exercised.
    """
    ratios = {"small": 0.5, "medium": 1.0, "large": 2.0}
    if name not in ratios:
        raise ValueError(f"unknown scenario {name!r}; pick from {sorted(ratios)}")
    wss = max(int(fast_tier_pages * ratios[name]), 8)
    spec = WorkloadSpec(
        name=f"microbench-{name}",
        service=ServiceClass.BE,
        rss_pages=wss * 4,
        n_threads=n_threads,
        accesses_per_thread=accesses_per_thread,
        populate_tier=populate_tier,
    )
    return MicrobenchWorkload(spec, seed=seed, wss_pages=wss, read_ratio=read_ratio)
