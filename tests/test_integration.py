"""Cross-module integration and failure-injection tests."""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.harness import ColocationExperiment
from repro.mm import pte as pte_mod
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.ycsb import YcsbWorkload

UNIT = 10**6


def machine(fast=128, slow=1024, cores=16):
    return MachineConfig(
        n_cores=cores,
        fast=TierConfig(name="fast", capacity_bytes=fast * UNIT, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=slow * UNIT, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )


def sim():
    return SimulationConfig(page_unit_bytes=UNIT, epoch_seconds=0.5)


def kv(name="kv", rss=200, mix="B", start=0, seed=0, threads=2):
    spec = WorkloadSpec(name=name, service=ServiceClass.LC, rss_pages=rss,
                        n_threads=threads, start_epoch=start, accesses_per_thread=2000)
    return YcsbWorkload(spec, seed=seed, mix=mix)


@pytest.mark.parametrize("policy", ["none", "uniform", "tpp", "memtis", "nomad", "vulcan"])
def test_every_policy_conserves_frames(policy):
    """After any policy churns for a while, every mapped PTE points at a
    live frame of the right tier and no frame is double-mapped."""
    exp = ColocationExperiment(
        policy, [kv("a"), kv("b", seed=1)], machine_config=machine(),
        sim=sim(), seed=2, cores_per_workload=4,
    )
    exp.run(8)
    seen_pfns: set[int] = set()
    for space in exp._spaces.values():
        for vpn, value in space.process.repl.process_table.iter_ptes():
            pfn = pte_mod.pte_pfn(value)
            assert pfn not in seen_pfns, f"{policy}: pfn {pfn} mapped twice"
            seen_pfns.add(pfn)
            page = exp.allocator.page(pfn)
            assert page.tier_id == exp.allocator.tier_of_pfn(pfn)
    # Allocator totals: used + free == capacity (shadows count as used).
    total = exp.allocator.tiers[0].total + exp.allocator.tiers[1].total
    free = exp.allocator.free_frames(0) + exp.allocator.free_frames(1)
    assert free + len(seen_pfns) <= total


@pytest.mark.parametrize("policy", ["memtis", "vulcan"])
def test_rss_equals_mapped_pages_forever(policy):
    exp = ColocationExperiment(
        policy, [kv("a", rss=300)], machine_config=machine(), sim=sim(),
        seed=1, cores_per_workload=4,
    )
    res = exp.run(6)
    ts = res.by_name("a")
    assert all(r == 300 for r in ts.rss_pages)


def test_fast_tier_oversubscription_survives():
    """Three workloads whose combined RSS dwarfs the fast tier: no
    crashes, allocator never over-commits, everyone keeps running."""
    wls = [kv(f"w{i}", rss=400, seed=i) for i in range(3)]
    exp = ColocationExperiment(
        "vulcan", wls, machine_config=machine(fast=64, slow=2048),
        sim=sim(), seed=3, cores_per_workload=4,
    )
    res = exp.run(10)
    used_fast = sum(ts.fast_pages[-1] for ts in res.workloads.values())
    assert used_fast <= 64
    for ts in res.workloads.values():
        assert ts.ops[-1] > 0


def test_slow_tier_exhaustion_is_loud():
    """RSS beyond both tiers must fail at admission, not corrupt state."""
    wl = kv("huge", rss=4000)
    exp = ColocationExperiment(
        "none", [wl], machine_config=machine(fast=64, slow=512),
        sim=sim(), seed=1, cores_per_workload=4,
    )
    from repro.mm.frame_alloc import OutOfFramesError

    with pytest.raises(OutOfFramesError):
        exp.run(1)
    # Admission is all or nothing: the failed tenant holds no frame and
    # left nothing buffered in a pagevec.
    assert exp.allocator.store.foreign_frames(exp._active).size == 0
    assert all(not vec.pending for vec in exp.lru.pagevecs)
    exp.allocator.check_consistency()


def test_write_heavy_kv_exercises_sync_path_under_vulcan():
    """YCSB-A (50% updates) must classify write-intensive and be migrated
    synchronously per Table 1."""
    wl = kv("a", mix="A", rss=300)
    exp = ColocationExperiment(
        "vulcan", [wl], machine_config=machine(fast=64), sim=sim(),
        seed=1, cores_per_workload=4,
    )
    exp.run(8)
    rt = next(iter(exp.policy.workloads.values()))
    # Hot pages are ~50% writes; the planner must have sent sync requests,
    # so transactional retries should be near zero.
    assert rt.engine.stats.retries <= rt.engine.stats.pages_moved * 0.05


def test_deterministic_across_policies_and_seeds():
    """Same seed ⇒ identical trajectories; different seed ⇒ different."""
    def run(seed):
        exp = ColocationExperiment(
            "vulcan", [kv("a", seed=0)], machine_config=machine(),
            sim=sim(), seed=seed, cores_per_workload=4,
        )
        return exp.run(5).by_name("a").ops

    a, b, c = run(7), run(7), run(8)
    np.testing.assert_allclose(a, b)
    assert not np.allclose(a, c)
