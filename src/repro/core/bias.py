"""Biased page migration policy (§3.5): promotion & demotion selection.

Promotion: hot slow-tier candidates are classified per Table 1
(ownership from the PTE thread-id bits, write intensity from profiled
write fractions), enqueued into the four priority queues, and served
within the workload's promotion budget.  The queue class also fixes the
copy discipline — async (transactional) for read-intensive pages, sync
for write-intensive ones.

Demotion: coldest-first among the workload's fast-tier pages, with a
preference for pages whose slow-tier shadow is still valid (remap-only
demotion, near-free) — "reduces demotion costs by remapping non-dirty
pages, which are often the read-intensive ... pages we previously
prioritized for promotion".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro import kernels
from repro.core.classify import PageClass
from repro.core.queues import PromotionQueues
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.pte import PTE_SHARED_TID
from repro.mm.replication import ReplicatedPageTables
from repro.mm.shadow import ShadowTracker
from repro.profiling.base import Profiler


class PlannedMigration(NamedTuple):
    """One selected page move."""

    pid: int
    vpn: int
    dest_tier: int  # 0 = promote, 1 = demote
    sync: bool
    heat: float
    page_class: PageClass | None = None
    write_fraction: float = 0.0


@dataclass
class MigrationPlan:
    """One epoch's selections for one workload."""

    promotions: list[PlannedMigration] = field(default_factory=list)
    demotions: list[PlannedMigration] = field(default_factory=list)


class BiasedMigrationPolicy:
    """Per-workload promotion/demotion selection with Table 1 bias."""

    def __init__(
        self,
        *,
        hot_threshold: float = 10.0,
        boost_factor: float = 2.0,
        write_intensive_threshold: float = 0.25,
    ) -> None:
        self.hot_threshold = hot_threshold
        self.write_intensive_threshold = write_intensive_threshold
        #: pid -> its promotion queues (workload-dependent, §3.2)
        self._queues: dict[int, PromotionQueues] = {}
        self._boost_factor = boost_factor

    def queues_for(self, pid: int) -> PromotionQueues:
        q = self._queues.get(pid)
        if q is None:
            q = PromotionQueues(boost_factor=self._boost_factor)
            self._queues[pid] = q
        return q

    def forget(self, pid: int) -> None:
        self._queues.pop(pid, None)

    # -- promotion ----------------------------------------------------------

    def refresh_candidates(
        self,
        pid: int,
        profiler: Profiler,
        repl: ReplicatedPageTables,
        allocator: FrameAllocator,
    ) -> int:
        """Classify + enqueue the workload's hot slow-tier pages.

        Returns the number of candidates enqueued this round.
        """
        queues = self.queues_for(pid)
        # Gather hot slow-tier pages in heat-insertion order (the order
        # the old dict iteration enqueued them in — the queues' running
        # class means depend on it).
        vpns, heats = profiler.heat_view(pid)
        if vpns.size == 0:
            return 0
        flat = repl.flat
        cand_vpns, cand_heats, priv = kernels.hot_slow_candidates(
            vpns, heats, self.hot_threshold, flat.pfn, flat.owner,
            flat.base, allocator.store.fast_frames, PTE_SHARED_TID,
        )
        if cand_vpns.size == 0:
            return 0
        wfs = profiler.write_fraction_many(pid, cand_vpns)
        # Vectorized classify_page: write_fraction_many guarantees
        # [0, 1] so the scalar range check is redundant, and the
        # elementwise >= is the same compare it made per page.  The
        # enqueues stay sequential — the queues' running class means
        # (MLFQ escalation) are order-dependent.
        vpn_l = cand_vpns.tolist()
        heat_l = cand_heats.tolist()
        priv_l = priv.tolist()
        wi_l = (wfs >= self.write_intensive_threshold).tolist()
        enqueue = queues.enqueue
        for vpn, heat, p, wi in zip(vpn_l, heat_l, priv_l, wi_l):
            if p:
                cls = PageClass.PRIVATE_WRITE if wi else PageClass.PRIVATE_READ
            else:
                cls = PageClass.SHARED_WRITE if wi else PageClass.SHARED_READ
            enqueue(pid, vpn, heat, cls)
        return len(vpn_l)

    def select_promotions(self, pid: int, budget: int, profiler: Profiler) -> list[PlannedMigration]:
        """Serve up to ``budget`` promotions from the priority queues."""
        if budget <= 0:
            return []
        queues = self.queues_for(pid)
        served = queues.pop(budget)
        if not served:
            return []
        # One gather for all write fractions; write_fraction_many is
        # elementwise-identical to the scalar write_fraction.
        wfs = profiler.write_fraction_many(
            pid, np.fromiter((qp.vpn for qp in served), dtype=np.int64, count=len(served))
        ).tolist()
        return [
            PlannedMigration(
                pid=pid,
                vpn=qp.vpn,
                dest_tier=0,
                sync=not qp.effective_class.use_async_copy,
                heat=qp.heat,
                page_class=qp.effective_class,
                write_fraction=wf,
            )
            for qp, wf in zip(served, wfs)
        ]

    # -- demotion ------------------------------------------------------------

    def select_demotions(
        self,
        pid: int,
        n_pages: int,
        profiler: Profiler,
        repl: ReplicatedPageTables,
        allocator: FrameAllocator,
        shadow: ShadowTracker | None = None,
        exclude: set[int] | None = None,
    ) -> list[PlannedMigration]:
        """Pick ``n_pages`` fast-tier victims, coldest first.

        Shadowed clean pages are preferred at equal coldness (they demote
        by remap); the sort key reflects that with a small bias rather
        than an absolute preference, so a hot shadowed page is still kept
        over a cold unshadowed one.
        """
        if n_pages <= 0:
            return []
        flat = repl.flat
        vpns = flat.present_vpns()  # ascending — same order as the PTE walk
        if vpns.size == 0:
            return []
        idx = flat.indices(vpns)
        pfns = flat.pfn[idx]
        keep = pfns < allocator.store.fast_frames  # fast-tier pages only
        if exclude:
            keep &= ~np.isin(vpns, np.fromiter(exclude, dtype=np.int64, count=len(exclude)))
        vpns, pfns, idx = vpns[keep], pfns[keep], idx[keep]
        if vpns.size == 0:
            return []
        h = profiler.heat_of(pid, vpns)
        if shadow is not None:
            shadowed = ~flat.dirty[idx] & shadow.shadowed_mask(pfns)
        else:
            shadowed = np.zeros(vpns.size, dtype=bool)
        key = h * np.where(shadowed, 0.5, 1.0)
        order = np.lexsort((vpns, key))[:n_pages]  # coldest first, vpn tiebreak
        return [
            PlannedMigration(
                pid=pid,
                vpn=int(vpns[i]),
                dest_tier=1,
                sync=True,  # demotions are off the hot path; shadow remap is cheap anyway
                heat=float(h[i]),
            )
            for i in order.tolist()
        ]
