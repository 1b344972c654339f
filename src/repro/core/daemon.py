"""The Vulcan migration daemon (§3.2) — ties the four innovations together.

One daemon instance manages a whitelisted set of workloads.  Per epoch it:

1. closes each workload's FTHR sampling window (Eq. 1-2);
2. derives fast-memory demands (Eq. 3);
3. runs CBFRP (Algorithm 1) to produce per-workload quotas;
4. refreshes each workload's promotion candidates, classifies them per
   Table 1, and serves promotions within the quota headroom through the
   workload's *own* migration engine (workload-dependent migration:
   scoped LRU drains, per-thread-page-table shootdown scoping);
5. demotes over-quota workloads coldest-first, using shadow remaps when
   possible.

The daemon never blocks one workload's migrations on another's — each
handle owns its engine — which is the decentralization §3.2 argues for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.bias import BiasedMigrationPolicy, MigrationPlan
from repro.core.cbfrp import CreditLedger, run_cbfrp
from repro.core.classify import ServiceClass
from repro.core.partition import PartitionLedger
from repro.core.qos import QosTracker
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.migration import MigrationEngine, MigrationRequest
from repro.mm.shadow import ShadowTracker
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer
from repro.profiling.base import Profiler


@dataclass
class WorkloadHandle:
    """Everything the daemon holds for one managed workload."""

    pid: int
    name: str
    service: ServiceClass
    space: AddressSpace
    engine: MigrationEngine
    profiler: Profiler
    shadow: ShadowTracker | None = None
    #: access rate per kilocycle fed to the transactional-dirty model
    access_rate_per_kcycle: float = 0.0


@dataclass
class EpochReport:
    """What one daemon tick did."""

    quotas: dict[int, int] = field(default_factory=dict)
    fthr: dict[int, float] = field(default_factory=dict)
    gpt: dict[int, float] = field(default_factory=dict)
    demands: dict[int, int] = field(default_factory=dict)
    plans: dict[int, MigrationPlan] = field(default_factory=dict)
    promotions: int = 0
    demotions: int = 0
    migration_cycles: float = 0.0


class VulcanDaemon:
    """Coordinates QoS tracking, CBFRP and biased migration."""

    def __init__(
        self,
        allocator: FrameAllocator,
        *,
        fast_capacity_pages: int,
        unit_pages: int = 16,
        promotion_budget_per_epoch: int = 256,
        policy: BiasedMigrationPolicy | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        if unit_pages <= 0:
            raise ValueError("unit_pages must be positive")
        self.allocator = allocator
        self.unit_pages = unit_pages
        self.promotion_budget = promotion_budget_per_epoch
        self.qos = QosTracker(fast_capacity_pages)
        self.partition = PartitionLedger(fast_capacity_pages)
        self.credits = CreditLedger()
        self.policy = policy if policy is not None else BiasedMigrationPolicy()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.workloads: dict[int, WorkloadHandle] = {}

    # -- whitelist management (the admin-controlled set, §3.2) ---------------

    def attach(self, handle: WorkloadHandle) -> None:
        """Admit a workload to management."""
        pid = handle.pid
        if pid in self.workloads:
            raise ValueError(f"pid {pid} already managed")
        self.workloads[pid] = handle
        self.qos.register(pid, handle.space.process.rss_pages)
        self.partition.register(pid)
        self.credits.ensure(pid)

    def detach(self, pid: int) -> None:
        """Remove an exited workload; its profiler/queue state is dropped."""
        handle = self.workloads.pop(pid, None)
        if handle is None:
            return
        handle.profiler.forget(pid)
        self.policy.forget(pid)
        self.qos.unregister(pid)
        self.partition.unregister(pid)
        self.credits.drop(pid)

    def set_fast_capacity(self, pages: int) -> None:
        """Capacity event: the online fast-tier size changed.

        Propagates to the QoS tracker (GPTs are derived from GFMC =
        capacity / n) and the partition ledger (CBFRP partitions the new
        capacity on the next tick).
        """
        pages = max(int(pages), 1)
        self.qos.set_capacity(pages)
        self.partition.set_capacity(pages)

    # -- per-epoch tick ----------------------------------------------------------

    def _sync_usage(self) -> None:
        """Pull ground-truth fast-tier usage from the frame store."""
        for pid in self.workloads:
            self.partition.set_usage(pid, self.allocator.store.fast_usage(pid))

    def tick(self, migrate: bool = True) -> EpochReport:
        """Run one management epoch (steps 1-5 of the module docstring).

        With ``migrate=False`` (Colloid-style suspension, §3.6) the QoS
        bookkeeping still runs — FTHR windows close, demands and quotas
        update — but no pages move this epoch.
        """
        report = EpochReport()
        if not self.workloads:
            return report

        # 1. Close FTHR windows; refresh RSS-dependent GPTs.
        for pid, handle in self.workloads.items():
            self.qos.set_rss(pid, handle.space.process.rss_pages)
        report.fthr = self.qos.end_epoch()
        report.gpt = {pid: q.gpt for pid, q in self.qos.workloads.items()}

        # 2. Demands from current allocations (quotas double as allocs),
        # with hot-set estimates gating the release side of the controller.
        self._sync_usage()
        allocs = {pid: self.partition.usage.get(pid, 0) for pid in self.workloads}
        hot_sets = {
            pid: handle.profiler.hot_count(pid, self.policy.hot_threshold)
            for pid, handle in self.workloads.items()
        }
        lc_map = {
            pid: handle.service is ServiceClass.LC for pid, handle in self.workloads.items()
        }
        report.demands = self.qos.demands(allocs, hot_sets, lc_map)

        # 3. CBFRP in allocation units.
        unit = self.unit_pages
        demands_units = {pid: -(-d // unit) for pid, d in report.demands.items()}
        capacity_units = self.partition.capacity_pages // unit
        service = {pid: h.service for pid, h in self.workloads.items()}
        state = run_cbfrp(capacity_units, demands_units, service, self.credits, rng=self.rng)
        quotas = {pid: u * unit for pid, u in state.allocations.items()}
        self.partition.set_quotas(quotas)
        report.quotas = quotas
        tracer = get_tracer()
        if tracer.enabled:
            for pid in self.workloads:
                tracer.emit(
                    EventKind.CREDIT_BALANCE,
                    "credit_balance",
                    pid=pid,
                    args={
                        "credits": self.credits.get(pid),
                        "quota_pages": quotas.get(pid, 0),
                        "demand_pages": report.demands.get(pid, 0),
                        "fthr": report.fthr.get(pid, 0.0),
                    },
                )

        # 4./5. Per-workload promotion and demotion.
        if not migrate:
            return report
        slack_shares = self._slack_shares()
        for pid, handle in self.workloads.items():
            plan = self._plan_for(pid, handle, slack_shares.get(pid, 0))
            report.plans[pid] = plan
            cycles_before = handle.engine.stats.total_cycles
            self._execute(handle, plan)
            report.migration_cycles += handle.engine.stats.total_cycles - cycles_before
            report.promotions += len(plan.promotions)
            report.demotions += len(plan.demotions)
        return report

    def _slack_shares(self) -> dict[int, int]:
        """Work-conserving slack: CBFRP quotas are *guarantees*, not caps.

        Capacity no workload demanded is distributed weighted by inverse
        FTHR, equalizing *effective* service (allocation × hit ratio):
        a workload extracting less value per fast page receives
        proportionally more pages, which is exactly what the paper's CFI
        metric (Eq. 4) scores.  The shares are reclaimable next round
        because overage is measured against quota + share.
        """
        total_quota = sum(self.partition.quotas.values())
        slack = max(self.partition.capacity_pages - total_quota, 0)
        if not self.workloads or slack == 0:
            return {pid: 0 for pid in self.workloads}
        weights = {
            pid: 1.0 / max(self.qos.workloads[pid].fthr, 0.10)
            for pid in self.workloads
        }
        wsum = sum(weights.values())
        return {pid: int(slack * w / wsum) for pid, w in weights.items()}

    def _plan_for(self, pid: int, handle: WorkloadHandle, slack_share: int = 0) -> MigrationPlan:
        plan = MigrationPlan()
        repl = handle.space.process.repl
        effective_quota = self.partition.quotas.get(pid, 0) + slack_share

        # Demote first when over the effective quota — frees headroom.
        # Rate-limited so the CBFRP controller converges smoothly instead
        # of slamming a workload's residency in one epoch.
        overage = max(self.partition.usage.get(pid, 0) - effective_quota, 0)
        overage = min(overage, self.promotion_budget)
        if overage > 0:
            plan.demotions = self.policy.select_demotions(
                pid, overage, handle.profiler, repl, self.allocator, shadow=handle.shadow
            )

        self.policy.refresh_candidates(pid, handle.profiler, repl, self.allocator)
        usage_after_demotion = self.partition.usage.get(pid, 0) - len(plan.demotions)
        headroom = max(effective_quota - usage_after_demotion, 0)
        budget = min(self.promotion_budget, headroom)
        # Also bounded by actual free fast frames after demotions land.
        free_after = self.allocator.free_frames(0) + len(plan.demotions)
        budget = min(budget, free_after)
        if budget > 0:
            plan.promotions = self.policy.select_promotions(pid, budget, handle.profiler)

        # Within-quota exchange: a full quota must not freeze a stale
        # resident set.  Hotter queued candidates displace the coldest
        # resident pages, with 1.2× hysteresis against thrashing.
        exchange_budget = self.promotion_budget - len(plan.promotions)
        if exchange_budget > 0 and headroom <= len(plan.promotions):
            extra = self.policy.select_promotions(pid, exchange_budget, handle.profiler)
            if extra:
                already = {m.vpn for m in plan.demotions}
                victims = self.policy.select_demotions(
                    pid, len(extra), handle.profiler, repl, self.allocator,
                    shadow=handle.shadow, exclude=already,
                )
                extra.sort(key=lambda m: -m.heat)
                victims.sort(key=lambda m: m.heat)
                for cand, victim in zip(extra, victims):
                    if cand.heat > 1.2 * victim.heat:
                        plan.promotions.append(cand)
                        plan.demotions.append(victim)
        return plan

    def _execute(self, handle: WorkloadHandle, plan: MigrationPlan) -> None:
        tracer = get_tracer()
        requests: list[MigrationRequest] = []
        for m in plan.demotions:
            if tracer.enabled:
                tracer.emit(
                    EventKind.QUEUE_DEMOTION,
                    "queue_demotion",
                    pid=m.pid,
                    args={"vpn": m.vpn, "heat": m.heat},
                )
            requests.append(
                MigrationRequest(pid=m.pid, vpn=m.vpn, dest_tier=1, sync=True)
            )
        for m in plan.promotions:
            requests.append(
                MigrationRequest(
                    pid=m.pid,
                    vpn=m.vpn,
                    dest_tier=0,
                    sync=m.sync,
                    write_fraction=m.write_fraction,
                    access_rate_per_kcycle=handle.access_rate_per_kcycle,
                )
            )
        if requests:
            handle.engine.migrate_batch(requests)
            self._post_move_accounting(handle, plan)

    def _post_move_accounting(self, handle: WorkloadHandle, plan: MigrationPlan) -> None:
        """Refresh partition usage after the engine moved pages."""
        self.partition.set_usage(handle.pid, self.allocator.store.fast_usage(handle.pid))
