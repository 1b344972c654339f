"""Per-policy mechanism details: watermarks, global thresholds, shadows."""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.harness import ColocationExperiment
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.microbench import MicrobenchWorkload

UNIT = 10**6


def machine(fast=128, slow=1024):
    return MachineConfig(
        n_cores=16,
        fast=TierConfig(name="fast", capacity_bytes=fast * UNIT, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=slow * UNIT, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )


def sim():
    return SimulationConfig(page_unit_bytes=UNIT, epoch_seconds=0.5)


def hot(name="hot", rss=200, start=0, seed=0, populate=0):
    return MemcachedWorkload(
        WorkloadSpec(name=name, service=ServiceClass.LC, rss_pages=rss, n_threads=2,
                     start_epoch=start, accesses_per_thread=3000, populate_tier=populate),
        seed=seed,
    )


def run(policy, wls, epochs=10, **kw):
    exp = ColocationExperiment(policy, wls, machine_config=machine(), sim=sim(),
                               seed=1, cores_per_workload=4, **kw)
    return exp.run(epochs), exp


class TestTpp:
    def test_watermark_demotion_engages_when_tier_full(self):
        # RSS fills the fast tier at admission; every epoch the reclaim
        # path frees the high-watermark's worth, which promotions then
        # consume — the TPP churn cycle.
        res, exp = run("tpp", [hot(rss=200)])
        tier = exp.allocator.tiers[0]
        demos = sum(res.by_name("hot").demotions)
        assert demos >= tier.high_watermark  # reclaim ran at least once
        assert sum(res.by_name("hot").promotions) > 0  # refilled after

    def test_promotions_are_synchronous(self):
        res, exp = run("tpp", [hot(rss=200, populate=1)])
        rt = next(iter(exp.policy.workloads.values()))
        if rt.engine.stats.promotions:
            assert rt.engine.stats.stall_cycles > 0
            assert rt.engine.stats.retries == 0  # sync never retries

    def test_hint_fault_costs_hit_application(self):
        _, exp = run("tpp", [hot(rss=200)])
        rt = next(iter(exp.policy.workloads.values()))
        assert rt.profiler.stats.app_overhead_cycles > 0


class TestMemtis:
    def test_reserve_keeps_headroom(self):
        res, exp = run("memtis", [hot(rss=400)])
        used = exp.allocator.tiers[0].used
        assert used <= exp.allocator.tiers[0].total  # trivially
        # Hot set far below capacity: no pointless fill beyond hot pages.
        assert sum(res.by_name("hot").promotions) >= 0

    def test_global_threshold_capacity_bound(self):
        """With two identical workloads, the global hot set never exceeds
        the reserve-adjusted capacity."""
        res, exp = run("memtis", [hot("a", rss=150), hot("b", rss=150, seed=5)], epochs=12)
        total_fast = sum(ts.fast_pages[-1] for ts in res.workloads.values())
        assert total_fast <= exp.allocator.tiers[0].total

    def test_migrations_are_transactional(self):
        _, exp = run("memtis", [hot(rss=300, populate=1)])
        rt = next(iter(exp.policy.workloads.values()))
        if rt.engine.stats.promotions:
            # Async path: stalls only from commit windows / fallbacks,
            # far below one sync copy per page.
            from repro.mm.migration_costs import MigrationCostModel

            per_page_stall = rt.engine.stats.stall_cycles / max(rt.engine.stats.pages_moved, 1)
            assert per_page_stall < MigrationCostModel().batch_copy_cycles(1)


class TestNomad:
    def test_promotions_leave_shadows(self):
        _, exp = run("nomad", [hot(rss=300, populate=1)])
        rt = next(iter(exp.policy.workloads.values()))
        if rt.engine.stats.promotions:
            assert rt.shadow is not None
            assert rt.shadow.stats.retained > 0

    def test_shadow_demotions_avoid_copies(self):
        # Force churn: tiny fast tier, heavy promotion + watermark demotion.
        wl = MicrobenchWorkload(
            WorkloadSpec(name="churn", service=ServiceClass.BE, rss_pages=400,
                         n_threads=2, accesses_per_thread=4000, populate_tier=1),
            seed=0, wss_pages=400, zipf_skew=0.5,
        )
        exp = ColocationExperiment("nomad", [wl], machine_config=machine(fast=64),
                                   sim=sim(), seed=1, cores_per_workload=4)
        exp.run(12)
        rt = next(iter(exp.policy.workloads.values()))
        if rt.engine.stats.demotions > 20:
            assert rt.engine.stats.shadow_remaps > 0


class TestUniform:
    def test_shares_are_static_across_demand_shifts(self):
        res, exp = run("uniform", [hot("a", rss=300), hot("b", rss=60, seed=9)], epochs=10)
        share = exp.allocator.tiers[0].total // 2
        # Even though 'b' barely needs memory, 'a' never exceeds the share.
        assert res.by_name("a").fast_pages[-1] <= share + 1


class TestVulcanDetails:
    def test_quota_follows_demand_shift(self):
        """When a second workload arrives, Vulcan reallocates; the solo
        workload's quota shrinks from all-of-fast toward its needs."""
        res, exp = run("vulcan", [hot("a", rss=300), hot("b", rss=300, seed=5, start=3)], epochs=14)
        a = res.by_name("a")
        assert a.fast_pages[0] >= 100  # had the tier to itself
        assert a.fast_pages[-1] < a.fast_pages[0]
        b = res.by_name("b")
        assert b.fast_pages[-1] > 0  # latecomer got served

    def test_credits_flow_on_reallocation(self):
        _, exp = run("vulcan", [hot("a", rss=300), hot("b", rss=300, seed=5, start=3)], epochs=14)
        credits = exp.policy.daemon.credits.credits
        assert len(credits) == 2
        from repro.core.cbfrp import INITIAL_CREDITS

        assert sum(credits.values()) == 2 * INITIAL_CREDITS  # zero-sum
