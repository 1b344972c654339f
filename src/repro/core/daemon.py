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
workload's record owns its engine — which is the decentralization §3.2
argues for.  That record is the policy's own
:class:`~repro.policies.base.WorkloadRuntime`: the daemon keeps no copy
of it, so a QoS change on the record reaches the next tick as is.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.bias import BiasedMigrationPolicy, MigrationPlan
from repro.core.cbfrp import CreditLedger, run_cbfrp
from repro.core.classify import ServiceClass
from repro.core.qos import QosTracker
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.migration import MigrationBatch
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer

if TYPE_CHECKING:  # repro.policies imports this module at import time
    from repro.policies.base import WorkloadRuntime


class VulcanDaemon:
    """Coordinates QoS tracking, CBFRP and biased migration."""

    def __init__(
        self,
        allocator: FrameAllocator,
        *,
        fast_capacity_pages: int,
        unit_pages: int = 16,
        promotion_budget_per_epoch: int = 256,
        rng: np.random.Generator | None = None,
    ) -> None:
        if unit_pages <= 0:
            raise ValueError("unit_pages must be positive")
        self.allocator = allocator
        self.unit_pages = unit_pages
        self.promotion_budget = promotion_budget_per_epoch
        #: holds the fast capacity CBFRP partitions (and GFMC derives from)
        self.qos = QosTracker(fast_capacity_pages)
        #: pid → fast-tier pages CBFRP granted on the last tick
        self.quotas: dict[int, int] = {}
        self.credits = CreditLedger()
        self.policy = BiasedMigrationPolicy()
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.workloads: dict[int, WorkloadRuntime] = {}

    # -- whitelist management (the admin-controlled set, §3.2) ---------------

    def attach(self, rt: WorkloadRuntime) -> None:
        """Admit a workload to management."""
        pid = rt.pid
        if pid in self.workloads:
            raise ValueError(f"pid {pid} already managed")
        self.workloads[pid] = rt
        self.qos.register(pid, rt.space.process.rss_pages)
        self.quotas[pid] = 0
        self.credits.ensure(pid)

    def detach(self, pid: int) -> None:
        """Remove an exited workload; its queues, QoS and credits go.

        Its profiler belongs to the policy, which forgets the pid there.
        """
        if self.workloads.pop(pid, None) is None:
            return
        self.policy.forget(pid)
        self.qos.unregister(pid)
        self.quotas.pop(pid, None)
        self.credits.drop(pid)

    def set_fast_capacity(self, pages: int) -> None:
        """Capacity event: the online fast-tier size changed.

        GPTs are derived from GFMC = capacity / n at once; CBFRP
        partitions the new capacity on the next tick.
        """
        self.qos.set_capacity(max(int(pages), 1))

    # -- per-epoch tick ----------------------------------------------------------

    def tick(self, migrate: bool = True) -> None:
        """Run one management epoch (steps 1-5 of the module docstring).

        With ``migrate=False`` (Colloid-style suspension, §3.6) the QoS
        bookkeeping still runs — FTHR windows close, demands and quotas
        update — but no pages move this epoch.
        """
        if not self.workloads:
            return

        # 1. Close FTHR windows; refresh RSS-dependent GPTs.
        for pid, rt in self.workloads.items():
            self.qos.set_rss(pid, rt.space.process.rss_pages)
        fthr = self.qos.end_epoch()

        # 2. Demands from current allocations (each pid's fast usage, read
        # once from the frame store: one pid's moves never change
        # another's), with hot-set estimates gating the release side.
        store = self.allocator.store
        allocs = {pid: store.fast_usage(pid) for pid in self.workloads}
        hot_sets = {
            pid: rt.profiler.hot_count(pid, self.policy.hot_threshold)
            for pid, rt in self.workloads.items()
        }
        lc_map = {pid: rt.service is ServiceClass.LC for pid, rt in self.workloads.items()}
        demands = self.qos.demands(allocs, hot_sets, lc_map)

        # 3. CBFRP in allocation units.
        unit = self.unit_pages
        capacity = self.qos.fast_capacity_pages
        demands_units = {pid: -(-d // unit) for pid, d in demands.items()}
        service = {pid: rt.service for pid, rt in self.workloads.items()}
        state = run_cbfrp(capacity // unit, demands_units, service, self.credits, rng=self.rng)
        quotas = {pid: u * unit for pid, u in state.allocations.items()}
        total = sum(quotas.values())
        if total > capacity:
            raise ValueError(f"quotas ({total}) exceed capacity ({capacity})")
        self.quotas = quotas
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
                        "demand_pages": demands.get(pid, 0),
                        "fthr": fthr.get(pid, 0.0),
                    },
                )

        # 4./5. Per-workload promotion and demotion.
        if not migrate:
            return
        slack_shares = self._slack_shares()
        for pid, rt in self.workloads.items():
            self._execute(rt, self._plan_for(rt, allocs[pid], slack_shares.get(pid, 0)))

    def _slack_shares(self) -> dict[int, int]:
        """Work-conserving slack: CBFRP quotas are *guarantees*, not caps.

        Capacity no workload demanded is distributed weighted by inverse
        FTHR, equalizing *effective* service (allocation × hit ratio):
        a workload extracting less value per fast page receives
        proportionally more pages, which is exactly what the paper's CFI
        metric (Eq. 4) scores.  The shares are reclaimable next round
        because overage is measured against quota + share.
        """
        total_quota = sum(self.quotas.values())
        slack = max(self.qos.fast_capacity_pages - total_quota, 0)
        if not self.workloads or slack == 0:
            return {pid: 0 for pid in self.workloads}
        weights = {
            pid: 1.0 / max(self.qos.workloads[pid].fthr, 0.10)
            for pid in self.workloads
        }
        wsum = sum(weights.values())
        return {pid: int(slack * w / wsum) for pid, w in weights.items()}

    def _plan_for(self, rt: WorkloadRuntime, usage: int, slack_share: int) -> MigrationPlan:
        """One workload's plan, given its fast-tier usage this tick."""
        pid = rt.pid
        plan = MigrationPlan()
        repl = rt.space.process.repl
        effective_quota = self.quotas[pid] + slack_share

        # Demote first when over the effective quota — frees headroom.
        # Rate-limited so the CBFRP controller converges smoothly instead
        # of slamming a workload's residency in one epoch.
        overage = max(usage - effective_quota, 0)
        overage = min(overage, self.promotion_budget)
        if overage > 0:
            plan.demotions = self.policy.select_demotions(
                pid, overage, rt.profiler, repl, self.allocator, shadow=rt.shadow
            )

        self.policy.refresh_candidates(pid, rt.profiler, repl, self.allocator)
        usage_after_demotion = usage - len(plan.demotions)
        headroom = max(effective_quota - usage_after_demotion, 0)
        budget = min(self.promotion_budget, headroom)
        # Also bounded by actual free fast frames after demotions land.
        free_after = self.allocator.free_frames(0) + len(plan.demotions)
        budget = min(budget, free_after)
        if budget > 0:
            plan.promotions = self.policy.select_promotions(pid, budget, rt.profiler)

        # Within-quota exchange: a full quota must not freeze a stale
        # resident set.  Hotter queued candidates displace the coldest
        # resident pages, with 1.2× hysteresis against thrashing: the
        # hottest candidate against the coldest victim, and so on down
        # (both orders stable, as list.sort is).
        exchange_budget = self.promotion_budget - len(plan.promotions)
        if exchange_budget > 0 and headroom <= len(plan.promotions):
            extra = self.policy.select_promotions(pid, exchange_budget, rt.profiler)
            if len(extra):
                victims = self.policy.select_demotions(
                    pid, len(extra), rt.profiler, repl, self.allocator,
                    shadow=rt.shadow, exclude=plan.demotions.vpns,
                )
                cands = np.argsort(-extra.heats, kind="stable")
                colds = np.argsort(victims.heats, kind="stable")
                k = min(cands.size, colds.size)
                cands, colds = cands[:k], colds[:k]
                wins = extra.heats[cands] > 1.2 * victims.heats[colds]
                plan.promotions = plan.promotions + extra.take(cands[wins])
                plan.demotions = plan.demotions + victims.take(colds[wins])
        return plan

    def _execute(self, rt: WorkloadRuntime, plan: MigrationPlan) -> None:
        """Move one workload's plan in one batch: demotions first, so
        they free fast frames the promotions can take."""
        demotions, promotions = plan.demotions, plan.promotions
        n_demote, n_promote = len(demotions), len(promotions)
        if not n_demote + n_promote:
            return
        tracer = get_tracer()
        if tracer.enabled:
            for vpn, heat in zip(demotions.vpns.tolist(), demotions.heats.tolist()):
                tracer.emit(
                    EventKind.QUEUE_DEMOTION,
                    "queue_demotion",
                    pid=rt.pid,
                    args={"vpn": vpn, "heat": heat},
                )
        batch = MigrationBatch(
            pids=np.full(n_demote + n_promote, rt.pid, dtype=np.int64),
            vpns=np.concatenate((demotions.vpns, promotions.vpns)),
            dest_tiers=np.concatenate(
                (np.ones(n_demote, dtype=np.int64), np.zeros(n_promote, dtype=np.int64))
            ),
            sync=np.concatenate((demotions.sync, promotions.sync)),
            write_fractions=np.concatenate((demotions.write_fractions, promotions.write_fractions)),
            access_rates=np.concatenate(
                (np.zeros(n_demote), np.full(n_promote, rt.access_rate_per_kcycle))
            ),
        )
        rt.engine.migrate_batch(batch)
