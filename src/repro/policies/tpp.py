"""TPP — Transparent Page Placement (Maruf et al., ASPLOS'23).

Re-implemented from the paper's description of TPP's mechanisms:

* **Profiling**: NUMA-hinting faults on slow-tier pages; a page that
  faults twice within the promotion window is deemed hot ("promote on
  second touch" — TPP's fault-frequency filter).
* **Promotion**: synchronous, on the faulting path — the application
  eats the whole migration latency (this is what Fig. 4/8 punish for
  write-heavy, and what Nomad was built to fix).
* **Demotion**: proactive watermark-based reclaim — when fast-tier free
  memory drops below the low watermark, the coldest inactive-LRU pages
  are demoted until the high watermark is restored, keeping allocation
  headroom for new pages and promotions.
* No workload awareness: one global promotion loop, raw access counts —
  the cold-page dilemma applies in full.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.mm.migration import MigrationRequest, OptimizationFlags
from repro.policies.base import TieringPolicy, WorkloadRuntime
from repro.profiling.base import Profiler
from repro.profiling.hintfault import HintFaultProfiler

#: heat (≈ hint faults within the decay horizon) to promote
PROMOTE_THRESHOLD = 0.4
#: most pages promoted per epoch
PROMOTION_BUDGET = 256


class TppPolicy(TieringPolicy):
    """Hint-fault promotion + watermark demotion, all synchronous."""

    name = "tpp"
    replication_enabled = False
    engine_flags = OptimizationFlags(opt_prep=False, opt_tlb=False)

    def _make_profiler(self, pid: int) -> Profiler:
        # Aggressive poisoning of a wide window: TPP instruments every
        # slow-tier page; cost lands on the application as fault latency.
        return HintFaultProfiler(window_fraction=0.25, decay=0.5)

    def _on_register(self, rt: WorkloadRuntime) -> None:
        assert isinstance(rt.profiler, HintFaultProfiler)
        rt.profiler.register_pages(rt.pid, rt.space.process.repl.flat.present_vpns())

    def _plan_and_migrate(self) -> None:
        self._demote_to_watermark()
        self._promote_hot()

    # -- demotion: watermark reclaim ------------------------------------------

    def _demote_to_watermark(self) -> None:
        fast = self.allocator.tiers[0]
        if not fast.below_low_watermark():
            return
        need = fast.frames_to_reclaim()
        if need <= 0:
            return
        # Kernel-style reclaim: inactive-LRU order, i.e. pages whose
        # accessed bit has been clear longest go first; hint heat only
        # breaks ties.  This is what lets a broad scanner keep its pages
        # resident (always recently referenced) while an LC service's
        # zipf tail ages out -- no workload awareness at all.
        victims: list[tuple[int, float, int, int]] = []  # (last_access, heat, pid, vpn)
        store = self.allocator.store
        for pid, rt in self.workloads.items():
            flat = rt.space.process.repl.flat
            vpns = flat.present_vpns()
            if vpns.size == 0:
                continue
            pfns = flat.pfn[flat.indices(vpns)]
            fastm = pfns < store.fast_frames
            if not fastm.any():
                continue
            v = vpns[fastm]
            ages = store.last_access_cycle[pfns[fastm]]
            heats = rt.profiler.heat_of(pid, v)
            victims.extend(zip(ages.tolist(), heats.tolist(), repeat(pid), v.tolist()))
        # Oldest accessed-bit age first; among equally-recent pages the
        # kernel has no meaningful order, so quantize the hint heat and
        # jitter -- otherwise float residue from fault history would
        # deterministically evict the youngest process's pages.
        victims.sort(key=lambda t: (t[0], round(t[1], 1), self.rng.random()))
        by_pid: dict[int, list[MigrationRequest]] = {}
        for _age, _h, pid, vpn in victims[:need]:
            by_pid.setdefault(pid, []).append(
                MigrationRequest(pid=pid, vpn=vpn, dest_tier=1, sync=True)
            )
        for pid, reqs in by_pid.items():
            self.workloads[pid].engine.migrate_batch(reqs)

    # -- promotion: second-touch hint faults ------------------------------------

    def _promote_hot(self) -> None:
        budget = PROMOTION_BUDGET
        # Global hottest-first ordering across workloads — raw counts,
        # exactly the behaviour Observation #1 criticizes.
        candidates: list[tuple[float, int, int]] = []
        for pid, rt in self.workloads.items():
            flat = rt.space.process.repl.flat
            # Heat-insertion order — the order the old dict walk saw.
            vpns, heats = rt.profiler.heat_view(pid)
            if vpns.size == 0:
                continue
            hot = heats >= PROMOTE_THRESHOLD
            vpns, heats = vpns[hot], heats[hot]
            if vpns.size == 0:
                continue
            idx = vpns - flat.base
            in_range = (idx >= 0) & (idx < flat.pfn.size)
            pfns = np.full(vpns.size, -1, dtype=np.int64)
            pfns[in_range] = flat.pfn[idx[in_range]]
            slow = pfns >= self.allocator.store.fast_frames
            candidates.extend(zip(heats[slow].tolist(), repeat(pid), vpns[slow].tolist()))
        # Hint faults are a binary-per-rotation signal, so candidate
        # heats tie en masse (up to float residue from fault history);
        # real promotion order is fault arrival, which has no workload
        # preference.  Shuffle, then stable-sort by *quantized* heat so
        # effective ties resolve randomly instead of by process age.
        self.rng.shuffle(candidates)
        candidates.sort(key=lambda t: -round(t[0], 1))
        free = self.allocator.free_frames(0)
        n = min(budget, free, len(candidates))
        by_pid: dict[int, list[MigrationRequest]] = {}
        for _heat, pid, vpn in candidates[:n]:
            by_pid.setdefault(pid, []).append(self._promotion_request(pid, vpn))
        for pid, reqs in by_pid.items():
            self.workloads[pid].engine.migrate_batch(reqs)

    def _promotion_request(self, pid: int, vpn: int) -> MigrationRequest:
        """One promotion, copied synchronously on the faulting path."""
        return MigrationRequest(pid=pid, vpn=vpn, dest_tier=0, sync=True)
