"""Processes, VMAs and demand paging.

A :class:`Process` owns a replicated page-table set, a VMA list, and its
thread registry.  :class:`AddressSpace` binds a process to the frame
allocator and implements the fault path:

* first touch by thread *t* → allocate a frame (fast tier with fallback
  to slow, Linux-style), install a PTE owned by *t*;
* touch by a second thread → private→shared promotion in the PTE
  ownership bits (see :mod:`repro.mm.replication`).

``record_plan()`` is the access path the epoch-driven simulator runs:
it updates frame access counters for a whole epoch of numpy traffic at
once, and TLB reach enters the harness analytically (see DESIGN.md §1).
``fault()`` maps one page, and ``populate()`` — the admission path —
maps a whole VMA in array passes with the same result.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.mm import pte as pte_mod
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.page import PhysPage
from repro.mm.page_store import STATE_MAPPED
from repro.mm.replication import ReplicatedPageTables


@dataclass
class Vma:
    """One contiguous virtual mapping."""

    start_vpn: int
    n_pages: int
    name: str = "anon"

    def __post_init__(self) -> None:
        if self.n_pages <= 0:
            raise ValueError("VMA must span at least one page")

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + self.n_pages

    def contains(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn

    def vpns(self) -> np.ndarray:
        """All VPNs of the region as an array (for vectorized sampling)."""
        return np.arange(self.start_vpn, self.end_vpn, dtype=np.int64)


@dataclass
class Process:
    """A workload process: threads + VMAs + replicated page tables."""

    pid: int
    name: str = ""
    replication_enabled: bool = True
    repl: ReplicatedPageTables = field(init=False)
    vmas: list[Vma] = field(default_factory=list)
    _next_vpn: int = 0x1000  # skip low VAs, purely cosmetic

    def __post_init__(self) -> None:
        self.repl = ReplicatedPageTables(enabled=self.replication_enabled)

    @property
    def tids(self) -> set[int]:
        return self.repl.tids

    def spawn_thread(self, tid: int) -> None:
        self.repl.register_thread(tid)

    def mmap(self, n_pages: int, name: str = "anon") -> Vma:
        """Reserve a contiguous virtual region (no frames yet)."""
        vma = Vma(start_vpn=self._next_vpn, n_pages=n_pages, name=name)
        self.vmas.append(vma)
        # Guard gap between VMAs so off-by-one bugs fault loudly.
        self._next_vpn = vma.end_vpn + 16
        return vma

    def vma_for(self, vpn: int) -> Vma | None:
        for vma in self.vmas:
            if vma.contains(vpn):
                return vma
        return None

    @property
    def rss_pages(self) -> int:
        """Resident set size in pages (frames actually faulted in)."""
        return self.repl.flat.mapped


class AddressSpace:
    """Binds a process to physical memory; implements demand paging."""

    def __init__(self, process: Process, allocator: FrameAllocator) -> None:
        self.process = process
        self.allocator = allocator
        self.minor_faults = 0
        self.major_faults = 0
        #: grow-only all-False span scratch reused by record_plan — the
        #: per-segment unique pass borrows it and returns it all-False
        self._span_scratch = np.zeros(0, dtype=bool)

    # -- structural access path (microbenchmarks) -------------------------

    def translate(self, vpn: int) -> int | None:
        """VPN → PFN through the page tables, or None if unmapped."""
        value = self.process.repl.lookup(vpn)
        if value is None or not pte_mod.pte_is_present(value):
            return None
        return pte_mod.pte_pfn(value)

    def fault(self, vpn: int, tid: int, *, prefer_tier: int = 0) -> PhysPage:
        """Demand-fault ``vpn`` in for thread ``tid``.

        Frames come from ``prefer_tier`` with fallback to the other tier
        when exhausted (the kernel's node-ordered fallback).
        """
        if self.process.vma_for(vpn) is None:
            raise KeyError(f"segfault: vpn {vpn} outside every VMA of pid {self.process.pid}")
        if self.process.repl.lookup(vpn) is not None:
            raise ValueError(f"vpn {vpn} already mapped")
        page = self.allocator.allocate(prefer_tier, fallback=True)
        page.attach(self.process.pid, vpn)
        self.process.repl.handle_fault(vpn, tid, page.pfn)
        self.major_faults += 1
        return page

    # -- vectorized access path (epoch simulator) ---------------------------

    def populate(self, vma: Vma, tids: int | np.ndarray, *, prefer_tier: int = 0) -> int:
        """Fault in every unmapped page of ``vma``; returns pages mapped.

        ``tids`` is the first-touch thread of each page of the VMA (an
        int: one thread for all).  The result is exactly that of one
        :meth:`fault` per unmapped vpn in ascending order — the same
        frames in the same pop order, PTEs, leaf links, store rows and
        counters — built in a few array passes.  Unlike that loop it is
        all or nothing: it raises before taking a frame if the tiers
        cannot supply every page.
        """
        proc = self.process
        if vma not in proc.vmas:
            raise KeyError(f"segfault: {vma} is not a VMA of pid {proc.pid}")
        repl = proc.repl
        flat = repl.flat
        vpns = vma.vpns()
        tids = np.broadcast_to(np.asarray(tids, dtype=np.int64), vpns.shape)
        idx = vpns - flat.base
        covered = (idx >= 0) & (idx < flat.pfn.size)
        unmapped = ~covered
        unmapped[covered] = flat.pfn[idx[covered]] < 0
        vpns, tids = vpns[unmapped], tids[unmapped]
        if vpns.size == 0:
            return 0
        if repl.enabled:
            unknown = set(tids.tolist()) - repl.tids
            if unknown:
                raise KeyError(f"tid {min(unknown)} not registered")
        pfns = self.allocator.allocate_pfns(vpns.size, prefer_tier, fallback=True)
        store = self.allocator.store
        store.pid[pfns] = proc.pid
        store.vpn[pfns] = vpns
        store.state[pfns] = STATE_MAPPED
        repl.handle_faults(vpns, tids, pfns)
        self.major_faults += int(vpns.size)
        return int(vpns.size)

    def record_plan(self, plan, cycle: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Account one :class:`EpochPlan` against frame counters.

        Pages must already be mapped (the harness populates VMAs up
        front, matching the paper's warmed-up workloads); an unmapped
        vpn raises ``KeyError``.  Each access becomes one int64 key,
        ``(vpn - lo) << 1 | is_write`` over the plan's vpn span
        ``[lo, hi]``, and everything is derived from it: one bincount
        gives per-page reads (even bins) and writes (odd bins), the
        page table is read over the span as a view, so frames are
        gathered once per occupied page instead of once per access, and
        one frame-counter update covers the epoch.  Only the sharing
        transitions, which are per-thread, walk the segments in order.
        Returns per-segment ``(fast, slow)`` access-count arrays for
        FTHR sampling (per-access tier membership, counted per segment).
        """
        offsets = plan.offsets
        total_seg = np.diff(offsets)
        if plan.n == 0:
            return np.zeros(total_seg.size, dtype=np.int64), total_seg
        vpns = plan.vpns
        repl = self.process.repl
        flat = repl.flat
        store = self.allocator.store
        lo = int(vpns.min())
        hi = int(vpns.max())
        if lo < flat.base or hi >= flat.base + flat.pfn.size:
            # Name the smallest unmapped vpn, in the table or past it.
            idx_all = vpns - flat.base
            inside = (idx_all >= 0) & (idx_all < flat.pfn.size)
            unmapped = ~inside
            unmapped[inside] = flat.pfn[idx_all[inside]] < 0
            bad = int(vpns[unmapped].min())
            raise KeyError(f"vpn {bad} not mapped; populate() the VMA first")

        span = hi - lo + 1
        key = vpns - lo
        key <<= 1
        key |= plan.is_write
        # A view: bulk_note_access below rewrites only owners and raw
        # values, never ``flat.pfn`` itself.
        pfn_span = flat.pfn[lo - flat.base:hi - flat.base + 1]
        counts, fast_seg = kernels.plan_span_stats(
            key, pfn_span, store.fast_frames, offsets, span
        )
        n_reads, n_writes = counts[0::2], counts[1::2]
        occ = np.flatnonzero(n_reads + n_writes)
        pfn_occ = pfn_span[occ]
        if pfn_occ.min() < 0:
            bad = int(occ[pfn_occ < 0][0]) + lo
            raise KeyError(f"vpn {bad} not mapped; populate() the VMA first")

        # Sharing transitions must run per thread, in segment order (a
        # transition by tid 0 changes what tid 1 sees); the per-segment
        # sorted-unique offsets are precomputed in one kernel pass over
        # the reusable span scratch.
        if self._span_scratch.size < span:
            self._span_scratch = np.zeros(span, dtype=bool)
        ucat, bounds = kernels.plan_segment_unique(
            key, offsets, self._span_scratch[:span]
        )
        minor = 0
        for k in range(total_seg.size):
            s, e = int(bounds[k]), int(bounds[k + 1])
            if s < e:
                minor += repl.bulk_note_access(ucat[s:e] + lo, int(plan.tids[k]))
        self.minor_faults += minor

        store.record_epoch_rows(pfn_occ, n_reads[occ], n_writes[occ], cycle)
        return fast_seg, total_seg - fast_seg
