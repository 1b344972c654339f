"""Memtis (Lee et al., SOSP'23) — the cold-page-dilemma exemplar.

Re-implemented from the paper's description:

* **Profiling**: PEBS sampling with per-page access counts and periodic
  halving (our decay).  Memtis bins these counts into a global
  histogram to find its hot threshold; at simulator scale we rank the
  pages exactly instead (one lexsort per pass).
* **Placement**: capacity-based — "ranks memory pages based on their
  absolute access frequency and promotes them to fast memory in
  descending order of heat until the fast memory capacity is fully
  utilized" (paper §2.2).  The hot threshold is global across all
  managed processes: no normalization per workload, so a high-intensity
  co-runner monopolizes the fast tier.
* **Migration**: asynchronous background threads (kmigrated-style), off
  the critical path; we model it with the transactional engine so dirty
  retries behave realistically, with a modest reserved headroom kept
  free for new allocations.
"""

from __future__ import annotations

import numpy as np

from repro.mm.migration import MigrationRequest, OptimizationFlags
from repro.policies.base import TieringPolicy
from repro.profiling.base import Profiler
from repro.profiling.pebs import PebsProfiler


class MemtisPolicy(TieringPolicy):
    """Global-threshold capacity tiering with async migration."""

    name = "memtis"
    replication_enabled = False
    engine_flags = OptimizationFlags(opt_prep=False, opt_tlb=False)

    def __init__(
        self,
        *args,
        sampling_period: int = 64,
        migration_budget: int = 512,
        reserve_frac: float = 0.01,
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.sampling_period = sampling_period
        self.migration_budget = migration_budget
        self.reserve_frac = reserve_frac

    def _make_profiler(self, pid: int) -> Profiler:
        return PebsProfiler(
            period=self.sampling_period,
            decay=0.5,
            rng=np.random.default_rng(self.rng.integers(2**63)),
        )

    def _plan_and_migrate(self) -> None:
        """One kmigrated pass: compute the global hot set, converge."""
        if not self.workloads:
            return
        capacity = int(self.allocator.tiers[0].total * (1.0 - self.reserve_frac))

        # Build the global heat table as parallel columns (heat, pid, vpn, tier).
        cols: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        for pid, rt in self.workloads.items():
            flat = rt.space.process.repl.flat
            pvpns = flat.present_vpns()
            if pvpns.size == 0:
                continue
            pfns = flat.pfn[flat.indices(pvpns)]
            cols.append(
                (
                    rt.profiler.heat_of(pid, pvpns),
                    np.full(pvpns.size, pid, dtype=np.int64),
                    pvpns,
                    (pfns >= self.allocator.store.fast_frames).astype(np.int8),
                )
            )
        if not cols:
            return
        h = np.concatenate([c[0] for c in cols])
        pids = np.concatenate([c[1] for c in cols])
        vpns = np.concatenate([c[2] for c in cols])
        tiers = np.concatenate([c[3] for c in cols])

        # The capacity-sized global hot set: hottest pages first, raw
        # absolute counts, no per-workload normalization (Observation #1).
        # Same total order as sorting tuples by (-heat, pid, vpn).
        order = np.lexsort((vpns, pids, -h))
        h, pids, vpns, tiers = h[order], pids[order], vpns[order], tiers[order]
        # The descending sort puts zero-heat rows at the back of the
        # capacity window, so the hot set is the h>0 prefix.
        n_hot = int((h[:capacity] > 0.0).sum())

        # Promote hot pages stuck in the slow tier, hottest first.
        promo_idx = np.flatnonzero(tiers[:n_hot] == 1)
        # Demotion victims: fast pages outside the hot set, coldest first
        # (ascending (heat, pid, vpn), matching the old tuple sort).
        demo_idx = n_hot + np.flatnonzero(tiers[n_hot:] == 0)
        demo_idx = demo_idx[np.lexsort((vpns[demo_idx], pids[demo_idx], h[demo_idx]))]
        free = self.allocator.free_frames(0)
        budget = self.migration_budget

        n_promote = min(promo_idx.size, budget)
        # Demote enough to make room for the promotions.
        room_needed = max(n_promote - free, 0)
        n_demote = min(room_needed, demo_idx.size, budget)

        by_pid: dict[int, list[MigrationRequest]] = {}
        for i in demo_idx[:n_demote].tolist():
            pid, vpn = int(pids[i]), int(vpns[i])
            by_pid.setdefault(pid, []).append(
                MigrationRequest(pid=pid, vpn=vpn, dest_tier=1, sync=False)
            )
        n_promote = min(n_promote, free + n_demote)
        for i in promo_idx[:n_promote].tolist():
            pid, vpn = int(pids[i]), int(vpns[i])
            rt = self.workloads[pid]
            by_pid.setdefault(pid, []).append(
                MigrationRequest(
                    pid=pid,
                    vpn=vpn,
                    dest_tier=0,
                    sync=False,
                    write_fraction=rt.profiler.write_fraction(pid, vpn),
                    access_rate_per_kcycle=rt.access_rate_per_kcycle,
                )
            )
        for pid, reqs in by_pid.items():
            self.workloads[pid].engine.migrate_batch(reqs)
