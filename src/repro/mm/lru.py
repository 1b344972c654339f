"""Per-CPU LRU pagevec caches and the migration-preparation cost source.

Linux batches LRU-list insertions in small per-CPU caches ("pagevecs",
15 entries).  Before a page can be isolated for migration, every CPU's
cache must be drained — ``lru_add_drain_all()`` — implemented with
``on_each_cpu_mask()``: schedule work on every CPU and wait.  The paper's
Observation #2 shows this *preparation* phase dominating migration time
as core counts grow (38.3% of 50K cycles at 2 CPUs → 76.9% of 750K at
32).

This module models the pagevecs that such a drain acts on: per-CPU
buffers that really hold pages until they fill or are drained, and
counters of global and scoped drains.  The preparation *cost* is
produced by the calibrated
:class:`repro.mm.migration_costs.MigrationCostModel`.  The LRU lists
themselves are not modelled: no policy reads list order, and TPP's
recency-ordered demotion sorts on ``PageStatsStore.last_access_cycle``.

Vulcan's workload-dependent migration avoids the global drain: each
application's migration threads drain only the CPUs that application
runs on (its dedicated cores), which is what the ``drain(cpu_ids)``
parameter expresses.
"""

from __future__ import annotations

from collections import deque
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
        """Flush buffered pages onto the LRU; returns them."""
        out = list(self.pending)
        self.pending.clear()
        return out


class LruSubsystem:
    """All per-CPU pagevecs, with counters of the drains that flush them."""

    def __init__(self, n_cpus: int) -> None:
        if n_cpus <= 0:
            raise ValueError("need at least one CPU")
        self.pagevecs = [PerCpuPagevec(cpu_id=i) for i in range(n_cpus)]
        self.drain_all_calls = 0
        self.scoped_drain_calls = 0

    def add_page(self, pfn: int, cpu_id: int) -> None:
        """Page becomes LRU-managed via ``cpu_id``'s pagevec."""
        vec = self.pagevecs[cpu_id]
        if vec.add(pfn):
            vec.drain()

    def add_pages(self, pfns: np.ndarray, cpus: np.ndarray) -> None:
        """:meth:`add_page` for each ``(pfns[i], cpus[i])`` in order, as a
        few array passes.

        A pagevec that fills flushes itself, so each CPU keeps only its
        last ``count % capacity`` adds buffered, in add order — the
        state the scalar loop leaves.  Every pagevec must be empty on
        entry — admission, the only caller, always ends with
        ``drain(None)`` — or batch boundaries would depend on what was
        already buffered.
        """
        if any(vec.pending for vec in self.pagevecs):
            raise RuntimeError("add_pages needs every pagevec empty")
        n = int(pfns.size)
        if n == 0:
            return
        # Group the adds by CPU, keeping add order within each CPU.
        order = np.argsort(cpus, kind="stable")
        by_cpu = cpus[order]
        starts = np.flatnonzero(np.r_[True, by_cpu[1:] != by_cpu[:-1]])
        ends = np.r_[starts[1:], n]
        for start, end in zip(starts.tolist(), ends.tolist()):
            vec = self.pagevecs[int(by_cpu[start])]
            left = (end - start) % vec.capacity
            vec.pending.extend(pfns[order[end - left:end]].tolist())

    def drain(self, cpu_ids: list[int] | None = None) -> int:
        """Drain pagevecs: all CPUs (``None``) or a scoped subset.

        Returns the number of pages flushed.  The *cost* of the global
        variant is the preparation term of the migration cost model;
        scoped drains are Vulcan's optimization.
        """
        if cpu_ids is None:
            vecs = self.pagevecs
            self.drain_all_calls += 1
        else:
            vecs = [self.pagevecs[i] for i in cpu_ids]
            self.scoped_drain_calls += 1
        return sum(len(vec.drain()) for vec in vecs)

    def forget_pages(self, pfns) -> int:
        """Drop pages from every pagevec (teardown).

        A departing process's frames may still be buffered in a per-CPU
        pagevec, and no pagevec may keep a reference once the frames
        return to the allocator.  Accepts any int iterable or an int
        ndarray directly (no boxed-int set is built for large
        teardowns).  Returns how many entries were removed.
        """
        if not any(vec.pending for vec in self.pagevecs):
            return 0
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
        return removed
