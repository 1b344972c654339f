"""Static baselines: no migration, and the uniform-partition straw-man."""

from __future__ import annotations

import numpy as np

from repro.mm.migration import MigrationRequest
from repro.policies.base import TieringPolicy, WorkloadRuntime
from repro.profiling.base import Profiler
from repro.profiling.pebs import PebsProfiler

#: most pages the uniform policy promotes per workload per epoch
PROMOTION_BUDGET = 256


class NoMigrationPolicy(TieringPolicy):
    """First-touch placement forever.  The floor every tiering system
    should beat; also the 'standalone all-fast' reference when the fast
    tier is large enough to hold a workload."""

    name = "none"

    def _make_profiler(self, pid: int) -> Profiler:
        # Still profile (cheaply) so hit-ratio reporting works.
        return PebsProfiler(period=512, rng=self.rng)

    def _plan_and_migrate(self) -> None:
        return  # never migrates


class UniformStaticPolicy(TieringPolicy):
    """The §3.3 straw-man: fast memory split evenly across workloads,
    hotness-based promotion/demotion confined to each static share.

    Fair by construction but inefficient: shares never follow demand, so
    a tiering-sensitive workload starves while a scan-heavy one wastes
    its slice."""

    name = "uniform"

    def _make_profiler(self, pid: int) -> Profiler:
        return PebsProfiler(period=64, rng=self.rng)

    def _plan_and_migrate(self) -> None:
        n = len(self.workloads)
        if n == 0:
            return
        share = self.allocator.tiers[0].total // n
        for pid, rt in self.workloads.items():
            self._rebalance_workload(pid, rt, share)

    def _rebalance_workload(self, pid: int, rt: WorkloadRuntime, share: int) -> None:
        flat = rt.space.process.repl.flat
        vpns = flat.present_vpns()
        if vpns.size == 0:
            return
        pfns = flat.pfn[flat.indices(vpns)]
        h = rt.profiler.heat_of(pid, vpns)
        fastm = pfns < self.allocator.store.fast_frames
        fvpns, fh = vpns[fastm], h[fastm]
        svpns, sh = vpns[~fastm], h[~fastm]

        requests: list[MigrationRequest] = []
        # Shrink to the static share first.
        overage = fvpns.size - share
        if overage > 0:
            # Coldest first — ascending (heat, vpn), the old tuple sort.
            for i in np.lexsort((fvpns, fh))[:overage].tolist():
                requests.append(
                    MigrationRequest(pid=pid, vpn=int(fvpns[i]), dest_tier=1, sync=True)
                )

        # Promote hottest slow pages into remaining headroom.
        headroom = share - (fvpns.size - max(overage, 0))
        headroom = min(headroom, PROMOTION_BUDGET)
        if headroom > 0 and svpns.size:
            # Hottest first — descending (heat, vpn), the old reverse sort.
            for i in np.lexsort((-svpns, -sh))[:headroom].tolist():
                if sh[i] <= 0.0:
                    break
                requests.append(
                    MigrationRequest(pid=pid, vpn=int(svpns[i]), dest_tier=0, sync=True)
                )
        if requests:
            rt.engine.migrate_batch(requests)
