#!/usr/bin/env python3
"""Write your own tiering policy against the public substrate.

Implements ``FrequencyLruPolicy`` — a deliberately simple hybrid (LRU
demotion + frequency promotion, per-workload partitions but no credits,
no bias, no QoS) — registers it alongside the built-ins, and races it
against Memtis and Vulcan on the paper mix.

The point: a policy only needs three methods (`_make_profiler`,
`_uses_shadowing`, `_plan_and_migrate`) and gets the whole machine —
structural page tables, calibrated migration engine, workloads, metrics
— for free.

Run:  python examples/custom_policy.py
"""

from __future__ import annotations

import numpy as np

from repro.harness import ColocationExperiment
from repro.metrics.fairness import cfi
from repro.metrics.reporting import render_table
from repro.mm import pte as pte_mod
from repro.mm.migration import MigrationRequest, OptimizationFlags
from repro.policies import POLICY_REGISTRY
from repro.policies.base import TieringPolicy
from repro.profiling.base import Profiler
from repro.profiling.pebs import PebsProfiler
from repro.sim.config import SimulationConfig
from repro.workloads.mixes import paper_colocation_mix


class FrequencyLruPolicy(TieringPolicy):
    """Even per-workload partitions; promote by sampled frequency,
    demote by recency — the 'obvious' design, for contrast."""

    name = "freqlru"
    replication_enabled = False
    engine_flags = OptimizationFlags(opt_prep=False, opt_tlb=False)

    def __init__(self, *args, budget: int = 256, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.budget = budget

    def _make_profiler(self, pid: int) -> Profiler:
        return PebsProfiler(period=64, rng=np.random.default_rng(self.rng.integers(2**63)))

    def _plan_and_migrate(self) -> None:
        if not self.workloads:
            return
        share = self.allocator.tiers[0].total // len(self.workloads)
        for pid, rt in self.workloads.items():
            heat = rt.profiler.hotness(pid)
            fast, slow = [], []
            for vpn, value in rt.space.process.repl.iter_ptes():
                pfn = pte_mod.pte_pfn(value)
                entry = (heat.get(vpn, 0.0), self.allocator.page(pfn).last_access_cycle, vpn)
                (fast if self.allocator.tier_of_pfn(pfn) == 0 else slow).append(entry)
            requests = []
            # Demote beyond the share, least-recently-used first.
            overflow = len(fast) - share
            if overflow > 0:
                fast.sort(key=lambda e: (e[1], e[0]))  # oldest, coldest first
                requests += [
                    MigrationRequest(pid=pid, vpn=vpn, dest_tier=1, sync=True)
                    for _, _, vpn in fast[:overflow]
                ]
            # Promote the hottest slow pages into the remaining room.
            room = min(share - len(fast) + max(overflow, 0), self.budget)
            if room > 0:
                slow.sort(key=lambda e: -e[0])
                requests += [
                    MigrationRequest(pid=pid, vpn=vpn, dest_tier=0, sync=True)
                    for h, _, vpn in slow[:room]
                    if h > 0
                ]
            if requests:
                rt.engine.migrate_batch(requests)


def main() -> None:
    POLICY_REGISTRY["freqlru"] = FrequencyLruPolicy  # plug it in

    sim = SimulationConfig(epoch_seconds=2.0)
    rows = []
    for policy in ("freqlru", "memtis", "vulcan"):
        print(f"running '{policy}' ...")
        exp = ColocationExperiment(
            policy, paper_colocation_mix(sim, accesses_per_thread=5000), sim=sim, seed=1
        )
        res = exp.run(70)  # covers Liblinear's t=110 s arrival (epoch 55)
        window = 10
        alloc = {pid: np.asarray(ts.fast_pages[-window:], float) for pid, ts in res.workloads.items()}
        fthr = {pid: np.asarray(ts.fthr_true[-window:], float) for pid, ts in res.workloads.items()}
        row = [policy]
        for name in ("memcached", "pagerank", "liblinear"):
            row.append(float(np.mean(res.by_name(name).ops[-window:])))
        row.append(cfi(alloc, fthr))
        rows.append(row)

    print()
    print(render_table(
        ["policy", "memcached_ops", "pagerank_ops", "liblinear_ops", "CFI"],
        rows,
        title="your policy vs the built-ins (paper mix, steady state)",
        float_fmt="{:.3g}",
    ))


if __name__ == "__main__":
    main()
