"""FlexMem-style hybrid profiler — Vulcan's default (§3.2).

Combines performance-counter sampling (frequency signal, cheap, may miss
pages) with hinting faults (exact recency for the rotation window,
catches what sampling misses) "to overcome the limitations of
sampling-based memory tracking".

Fusion rule: heat is the PEBS frequency estimate, boosted by the
hint-fault indicator for pages sampling under-reports.  Each mechanism
keeps its own cost accounting; the hybrid's application overhead is
their sum.
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import EpochPlan, Profiler
from repro.profiling.hintfault import HintFaultProfiler
from repro.profiling.pebs import PebsProfiler


class HybridProfiler(Profiler):
    """PEBS frequency + hint-fault recency fusion."""

    mechanism = "hybrid"

    def __init__(
        self,
        period: int = 64,
        window_fraction: float = 0.125,
        decay: float = 0.5,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__(decay=decay)
        self.pebs = PebsProfiler(period=period, decay=decay, rng=rng)
        self.faults = HintFaultProfiler(window_fraction=window_fraction, decay=decay)
        #: Heat credited to a hint-fault hit.  A fault proves >= 1 access
        #: where sampling's detection floor is ~period accesses, but a
        #: binary indicator must not drown the frequency signal (streaming
        #: scans fault every rotation yet have no reuse) — an eighth of a
        #: period keeps fault-only pages below typical hot thresholds
        #: while still surfacing sampling misses.
        self.fault_boost = period / 8.0

    def register_pages(self, pid: int, vpns: np.ndarray) -> None:
        """Expose the fault rotation's coverage registration."""
        self.faults.register_pages(pid, vpns)

    def observe_plan(self, plan: EpochPlan) -> None:
        """One call to each mechanism; their states are disjoint, so this
        equals interleaving them segment by segment."""
        self.pebs.observe_plan(plan)
        self.faults.observe_plan(plan)

    def end_epoch(self) -> None:
        self.pebs.end_epoch()
        self.faults.end_epoch()
        # Fuse into this profiler's own heat store so downstream
        # consumers see one coherent estimate: start from a copy of the
        # PEBS book, then add the boosted fault indicator in the fault
        # store's insertion order (the old dict-update order).
        self._heat.clear()
        self._write_heat.clear()
        pids = set(self.pebs._heat.pids()) | set(self.faults._heat.pids())
        for pid in pids:
            self._heat.adopt_copy(pid, self.pebs._heat)
            fvpns = self.faults._heat.ordered_vpns(pid)
            self._heat.add_scaled(
                pid, fvpns, self.faults._heat.gather(pid, fvpns), self.fault_boost
            )
            self._write_heat.adopt_copy(pid, self.pebs._write_heat)
            wvpns = self.faults._write_heat.ordered_vpns(pid)
            self._write_heat.add_scaled(
                pid, wvpns, self.faults._write_heat.gather(pid, wvpns), self.fault_boost
            )
        # Aggregate cost accounting.
        self.stats.app_overhead_cycles = (
            self.pebs.stats.app_overhead_cycles + self.faults.stats.app_overhead_cycles
        )

    def forget(self, pid: int) -> None:
        super().forget(pid)
        self.pebs.forget(pid)
        self.faults.forget(pid)
