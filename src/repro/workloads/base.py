"""Workload interface for the epoch-driven harness.

A workload owns a virtual region (its RSS) inside a process the harness
creates, and produces one :class:`EpochPlan` of per-thread traffic each
epoch.  Per-thread generation matters: Vulcan's page classification
distinguishes *which* threads touch a page, so generators partition or
share their working sets across threads explicitly.

The issue model separates *intent* from *achievement*: a workload asks
to issue ``issue_rate(epoch)`` × budget accesses; the harness converts
achieved memory latency into achieved throughput (the performance
metric).  ``issue_rate`` < 1 models LC burstiness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.classify import ServiceClass
from repro.mm.address_space import Vma
from repro.profiling.base import EpochPlan


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description the harness uses to set a workload up."""

    name: str
    service: ServiceClass
    rss_pages: int
    n_threads: int = 8
    start_epoch: int = 0
    #: requested accesses per thread per epoch at issue_rate = 1
    accesses_per_thread: int = 20_000
    #: tier the RSS is faulted into at admission (0 = fast-first with
    #: fallback, Linux default; 1 = slow, as in the Nomad microbenchmark
    #: that "allocates data to specific segments of the tiered memory")
    populate_tier: int = 0


class Workload:
    """Base class; subclasses implement :meth:`_thread_access`."""

    def __init__(self, spec: WorkloadSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = seed
        self.pid: int | None = None
        self.vma: Vma | None = None
        self._rng = np.random.default_rng(seed)
        #: the reusable plan buffer every epoch is built into
        self._plan_vpns = np.empty(0, dtype=np.int64)
        self._plan_writes = np.empty(0, dtype=bool)
        self._plan_offsets = np.zeros(0, dtype=np.int64)
        self._plan_tids = np.zeros(0, dtype=np.int64)

    # -- harness binding -----------------------------------------------------

    def bind(self, pid: int, vma: Vma) -> None:
        """Called once by the harness after the VMA is created."""
        self.pid = pid
        self.vma = vma
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook (e.g. build index structures over the VMA)."""

    def reshape(self, attrs: dict | None = None, reseed: int | None = None) -> None:
        """Scenario phase shift: mutate generator knobs on a live workload.

        ``attrs`` assigns existing generator attributes (e.g. a
        Memcached ``hot_frac`` resize or a Zipf skew change); ``reseed``
        replaces the layout seed.  Either way :meth:`_on_bind` re-runs
        so derived structures (hot-set permutations, samplers) are
        rebuilt over the *same* VMA — the process, its pages, and its
        profile history all survive; only future traffic changes shape.
        """
        if self.pid is None or self.vma is None:
            raise RuntimeError(f"workload {self.name!r} not bound to a process")
        for name, value in (attrs or {}).items():
            if name.startswith("_") or not hasattr(self, name):
                raise AttributeError(f"{type(self).__name__} has no reshapeable attribute {name!r}")
            setattr(self, name, value)
        if reseed is not None:
            self.seed = int(reseed)
        self._on_bind()

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def service(self) -> ServiceClass:
        return self.spec.service

    # -- per-epoch generation ---------------------------------------------------

    def issue_rate(self, epoch: int) -> float:
        """Fraction of the access budget the workload tries to use this
        epoch (1.0 = saturating).  Default: saturating (BE behaviour)."""
        return 1.0

    def planned_epoch(self, epoch: int) -> tuple[float, EpochPlan]:
        """The epoch's ``(issue_rate, EpochPlan)``: one batch of accesses
        per thread, in tid order, ``_thread_access`` supplying each.

        RNG draw order: ``issue_rate`` once for the harness's ops budget
        (the returned rate), once more for the plan's access count, then
        each thread's traffic.  The plan is written into one reusable
        buffer without per-epoch allocations, so its arrays are views
        valid until the next call, which the epoch-driven harness
        guarantees by consuming each plan within its epoch.
        """
        if self.pid is None or self.vma is None:
            raise RuntimeError(f"workload {self.name!r} not bound to a process")
        issue = self.issue_rate(epoch)
        n = int(self.spec.accesses_per_thread * self.issue_rate(epoch))
        nt = self.spec.n_threads
        if self._plan_offsets.size != nt + 1:
            self._plan_offsets = np.zeros(nt + 1, dtype=np.int64)
            self._plan_tids = np.arange(nt, dtype=np.int64)
        offsets = self._plan_offsets
        offsets[0] = 0
        if n <= 0:
            offsets[:] = 0
            return issue, EpochPlan(
                pid=self.pid,
                vpns=self._plan_vpns[:0],
                is_write=self._plan_writes[:0],
                offsets=offsets,
                tids=self._plan_tids,
            )
        cap = n * nt
        if self._plan_vpns.size < cap:
            self._plan_vpns = np.empty(cap, dtype=np.int64)
            self._plan_writes = np.empty(cap, dtype=bool)
        buf_v = self._plan_vpns
        buf_w = self._plan_writes
        pos = 0
        for tid in range(nt):
            vpns, writes = self._thread_access(tid, n, epoch)
            m = vpns.size
            if pos + m > buf_v.size:
                # A thread may emit more than ``n`` accesses (YCSB scans
                # touch up to a run of pages per operation): grow.
                grown = 2 * (pos + m)
                buf_v = self._plan_vpns = np.concatenate([buf_v[:pos], np.empty(grown - pos, dtype=np.int64)])
                buf_w = self._plan_writes = np.concatenate([buf_w[:pos], np.empty(grown - pos, dtype=bool)])
            buf_v[pos : pos + m] = vpns
            buf_w[pos : pos + m] = writes
            pos += m
            offsets[tid + 1] = pos
        return issue, EpochPlan(
            pid=self.pid,
            vpns=buf_v[:pos],
            is_write=buf_w[:pos],
            offsets=offsets,
            tids=self._plan_tids,
        )

    def _thread_access(self, tid: int, n: int, epoch: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (vpns, is_write) for one thread's epoch traffic."""
        raise NotImplementedError

    def first_touch_tids(self) -> np.ndarray:
        """Which thread demand-faults each page of the VMA in, by offset.

        First touch sets PTE ownership (§3.4), so this must reflect the
        application's real initialization pattern: data-parallel apps
        fault their own shards in; shared structures are touched by
        whichever thread gets there first (modeled round-robin).
        """
        return np.arange(self.spec.rss_pages, dtype=np.int64) % self.spec.n_threads

    def _sharded_first_touch(self, shared_pages: int, shard_pages: int) -> np.ndarray:
        """First touch of a VMA whose first ``shared_pages`` are shared
        (round-robin) and whose rest is cut into per-thread shards of
        ``shard_pages`` (the last thread takes any remainder)."""
        nt = self.spec.n_threads
        offsets = np.arange(self.spec.rss_pages, dtype=np.int64)
        shard = np.minimum((offsets - shared_pages) // shard_pages, nt - 1)
        return np.where(offsets < shared_pages, offsets % nt, shard)

    # -- metadata the harness/policies may query ---------------------------------

    def write_fraction(self) -> float:
        """Nominal overall write fraction (for documentation/tests)."""
        return 0.0

    def wss_pages(self) -> int:
        """Nominal working-set size in pages (defaults to RSS)."""
        return self.spec.rss_pages
