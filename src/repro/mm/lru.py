"""Per-CPU LRU pagevec caches and the migration-preparation cost source.

Linux batches LRU-list insertions in small per-CPU caches ("pagevecs",
15 entries).  Before a page can be isolated for migration, every CPU's
cache must be drained — ``lru_add_drain_all()`` — implemented with
``on_each_cpu_mask()``: schedule work on every CPU and wait.  The paper's
Observation #2 shows this *preparation* phase dominating migration time
as core counts grow (38.3% of 50K cycles at 2 CPUs → 76.9% of 750K at
32).

This module models the structure (per-CPU pagevecs that really buffer
pages, a global two-list LRU per tier for candidate selection) while the
preparation *cost* is produced by the calibrated
:class:`repro.mm.migration_costs.MigrationCostModel`.

Vulcan's workload-dependent migration avoids the global drain: each
application's migration threads drain only the CPUs that application
runs on (its dedicated cores), which is what the ``drain(cpu_ids)``
parameter expresses.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field

import numpy as np

PAGEVEC_SIZE = 15  # Linux PAGEVEC_SIZE


@dataclass
class PerCpuPagevec:
    """One CPU's LRU-addition buffer."""

    cpu_id: int
    capacity: int = PAGEVEC_SIZE
    pending: deque[int] = field(default_factory=deque)  # pfns awaiting LRU insert

    def add(self, pfn: int) -> bool:
        """Buffer a page; returns True when the vec filled and must drain."""
        self.pending.append(pfn)
        return len(self.pending) >= self.capacity

    def drain(self) -> list[int]:
        """Flush buffered pages (to the global lists); returns them."""
        out = list(self.pending)
        self.pending.clear()
        return out


class LruList:
    """Two-handed (active/inactive) LRU for one tier.

    ``OrderedDict`` gives O(1) move-to-end; iteration from the cold end
    of the inactive list yields demotion candidates, as in the kernel's
    reclaim scan.
    """

    def __init__(self) -> None:
        self.active: OrderedDict[int, None] = OrderedDict()
        self.inactive: OrderedDict[int, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self.active) + len(self.inactive)

    def __contains__(self, pfn: int) -> bool:
        return pfn in self.active or pfn in self.inactive

    def insert(self, pfn: int) -> None:
        """New pages enter the inactive list (kernel behaviour)."""
        if pfn in self:
            raise ValueError(f"pfn {pfn} already on LRU")
        self.inactive[pfn] = None

    def insert_absent(self, pfns: list[int]) -> None:
        """:meth:`insert` each pfn not already on the list, in order."""
        active, inactive = self.active, self.inactive
        for pfn in pfns:
            if pfn not in active:
                # A key already inactive keeps its place, as a skipped insert would.
                inactive[pfn] = None

    def mark_accessed(self, pfn: int) -> None:
        """Second touch promotes inactive→active; active refreshes MRU."""
        if pfn in self.inactive:
            del self.inactive[pfn]
            self.active[pfn] = None
        elif pfn in self.active:
            self.active.move_to_end(pfn)

    def age(self, n: int) -> int:
        """Move up to ``n`` pages from the cold end of active→inactive."""
        moved = 0
        while moved < n and self.active:
            pfn, _ = self.active.popitem(last=False)
            self.inactive[pfn] = None
            moved += 1
        return moved

    def coldest(self, n: int) -> list[int]:
        """Up to ``n`` demotion candidates from the inactive cold end."""
        out: list[int] = []
        for pfn in self.inactive:
            if len(out) >= n:
                break
            out.append(pfn)
        return out

    def remove(self, pfn: int) -> None:
        if pfn in self.inactive:
            del self.inactive[pfn]
        elif pfn in self.active:
            del self.active[pfn]
        else:
            raise KeyError(f"pfn {pfn} not on LRU")


class LruSubsystem:
    """All per-CPU pagevecs plus per-tier global LRU lists."""

    def __init__(self, n_cpus: int, n_tiers: int = 2) -> None:
        if n_cpus <= 0:
            raise ValueError("need at least one CPU")
        self.pagevecs = [PerCpuPagevec(cpu_id=i) for i in range(n_cpus)]
        self.lists = [LruList() for _ in range(n_tiers)]
        self.drain_all_calls = 0
        self.scoped_drain_calls = 0
        #: tier recorded for pages still sitting in a pagevec.
        self._pending_tier: dict[int, int] = {}

    def add_page(self, pfn: int, tier_id: int, cpu_id: int) -> None:
        """Page becomes LRU-managed via ``cpu_id``'s pagevec."""
        vec = self.pagevecs[cpu_id]
        self._pending_tier[pfn] = tier_id
        if vec.add(pfn):
            for drained in vec.drain():
                self._insert_global(drained)

    def add_pages(self, pfns: np.ndarray, tiers: np.ndarray, cpus: np.ndarray) -> None:
        """:meth:`add_page` for each distinct ``(pfns[i], tiers[i],
        cpus[i])`` in order, as a few array passes.

        Leaves the pagevecs and global lists exactly as the scalar loop
        would.  The flush-order rule: a pagevec that fills flushes to the
        global lists at the add that filled it, so full batches reach the
        lists in the order they filled, each in add order; every CPU's
        last partial batch stays buffered for the next :meth:`drain`.
        Every pagevec must be empty on entry — admission, the only
        caller, always ends with ``drain(None)`` — or batch boundaries
        would depend on what was already buffered.
        """
        if any(vec.pending for vec in self.pagevecs):
            raise RuntimeError("add_pages needs every pagevec empty")
        n = int(pfns.size)
        if n == 0:
            return
        # Group the adds by CPU, keeping add order within each CPU, and
        # rank every add within its CPU's stream.
        order = np.argsort(cpus, kind="stable")
        by_cpu = cpus[order]
        starts = np.flatnonzero(np.r_[True, by_cpu[1:] != by_cpu[:-1]])
        counts = np.diff(np.r_[starts, n])
        rank = np.arange(n) - np.repeat(starts, counts)
        cap = PAGEVEC_SIZE
        batch_last = np.arange(n) + (cap - 1 - rank % cap)  # by_cpu position
        full = batch_last < np.repeat(starts + counts, counts)
        # A full batch flushes at its last add: order batches by that add.
        flushed = order[full]
        flush_at = order[batch_last[full]]
        flushed = flushed[np.argsort(flush_at, kind="stable")]
        for tier_id, lst in enumerate(self.lists):
            lst.insert_absent(pfns[flushed[tiers[flushed] == tier_id]].tolist())
        left = order[~full]
        for pfn, tier_id, cpu in zip(pfns[left].tolist(), tiers[left].tolist(), cpus[left].tolist()):
            self._pending_tier[pfn] = tier_id
            self.pagevecs[cpu].pending.append(pfn)

    def _insert_global(self, pfn: int) -> None:
        tier = self._pending_tier.pop(pfn, 0)
        if pfn not in self.lists[tier]:
            self.lists[tier].insert(pfn)

    def drain(self, cpu_ids: list[int] | None = None) -> int:
        """Drain pagevecs: all CPUs (``None``) or a scoped subset.

        Returns the number of pages flushed to the global lists.  The
        *cost* of the global variant is the preparation term of the
        migration cost model; scoped drains are Vulcan's optimization.
        """
        if cpu_ids is None:
            vecs = self.pagevecs
            self.drain_all_calls += 1
        else:
            vecs = [self.pagevecs[i] for i in cpu_ids]
            self.scoped_drain_calls += 1
        flushed = 0
        for vec in vecs:
            for pfn in vec.drain():
                self._insert_global(pfn)
                flushed += 1
        return flushed

    def is_isolatable(self, pfn: int, tier_id: int) -> bool:
        """A page can be isolated for migration only once it is on the
        global LRU (i.e. not stuck in some CPU's pagevec)."""
        return pfn in self.lists[tier_id]

    def forget_pages(self, pfns) -> int:
        """Drop pages from every pagevec and global list (teardown).

        A departing process's frames may sit anywhere in the LRU
        machinery — buffered in a per-CPU pagevec, or on either tier's
        global lists — and none of those locations may keep a reference
        once the frames return to the allocator.  Accepts any int
        iterable or an int ndarray directly (no boxed-int set is built
        for large teardowns).  Returns how many entries were removed.
        """
        sorted_pfns = np.unique(np.asarray(pfns, dtype=np.int64))
        if sorted_pfns.size == 0:
            return 0
        removed = 0
        for vec in self.pagevecs:
            if not vec.pending:
                continue
            pending = np.fromiter(vec.pending, dtype=np.int64, count=len(vec.pending))
            pos = np.searchsorted(sorted_pfns, pending)
            pos[pos == sorted_pfns.size] = 0
            drop = sorted_pfns[pos] == pending
            if drop.any():
                removed += int(drop.sum())
                vec.pending = deque(pending[~drop].tolist())
        for pfn in sorted_pfns.tolist():
            self._pending_tier.pop(pfn, None)
            for lst in self.lists:
                if pfn in lst:
                    lst.remove(pfn)
                    removed += 1
        return removed

    def move_tier(self, pfn: int, from_tier: int, to_tier: int) -> None:
        """Relink a migrated page onto its new tier's LRU."""
        if pfn in self.lists[from_tier]:
            self.lists[from_tier].remove(pfn)
        if pfn not in self.lists[to_tier]:
            self.lists[to_tier].insert(pfn)
