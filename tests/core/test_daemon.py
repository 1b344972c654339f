"""VulcanDaemon: end-to-end management epochs on a small machine."""

import numpy as np
import pytest

import repro.core.daemon as daemon_mod
from repro.core.classify import ServiceClass
from repro.core.daemon import VulcanDaemon
from repro.machine.platform import Machine
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, OptimizationFlags
from repro.mm.shadow import ShadowTracker
from repro.policies.base import WorkloadRuntime
from repro.policies.vulcan import VulcanPolicy
from repro.profiling.base import AccessBatch
from repro.profiling.pebs import PebsProfiler
from tests.conftest import make_process, small_machine_config


def build_world(fast=32, slow=256):
    machine = Machine(small_machine_config(fast_pages=fast, slow_pages=slow))
    alloc = FrameAllocator(fast_frames=fast, slow_frames=slow)
    lru = LruSubsystem(n_cpus=machine.cpu.n_cores)
    daemon = VulcanDaemon(alloc, fast_capacity_pages=fast, unit_pages=4, promotion_budget_per_epoch=16)
    return machine, alloc, lru, daemon


def populated_space(alloc, pid, n_pages, prefer_tier):
    proc = make_process(pid=pid, n_threads=2)
    vma = proc.mmap(n_pages)
    space = AddressSpace(proc, alloc)
    for i, vpn in enumerate(range(vma.start_vpn, vma.end_vpn)):
        space.fault(vpn, tid=i % 2, prefer_tier=prefer_tier)
    return space, vma


def attach_workload(machine, alloc, lru, daemon, pid, n_pages, service, prefer_tier=0):
    space, vma = populated_space(alloc, pid, n_pages, prefer_tier)
    core_map = {0: 0, 1: 1}
    shadow = ShadowTracker()
    engine = MigrationEngine(
        machine, alloc, space, lru,
        flags=OptimizationFlags(opt_prep=True, opt_tlb=True),
        thread_core_map=core_map,
        shadow=shadow,
        rng=np.random.default_rng(pid),
    )
    rt = WorkloadRuntime(
        pid=pid, name=f"w{pid}", service=service, space=space, engine=engine,
        profiler=PebsProfiler(period=1), thread_core_map=core_map, shadow=shadow,
    )
    daemon.attach(rt)
    return rt, vma


def heat_pages(rt, vpns, count=20, write=False):
    batch = AccessBatch(
        pid=rt.pid,
        tid=0,
        vpns=np.repeat(np.asarray(vpns, dtype=np.int64), count),
        is_write=np.full(len(vpns) * count, write, dtype=bool),
    )
    rt.profiler.observe(batch)


def test_attach_registers_everywhere():
    machine, alloc, lru, daemon = build_world()
    rt, _ = attach_workload(machine, alloc, lru, daemon, 1, 16, ServiceClass.LC)
    assert daemon.workloads[1] is rt
    assert 1 in daemon.qos.workloads
    assert daemon.quotas == {1: 0}
    assert 1 in daemon.credits.credits
    with pytest.raises(ValueError):
        daemon.attach(rt)


def test_detach_cleans_up():
    machine, alloc, lru, daemon = build_world()
    attach_workload(machine, alloc, lru, daemon, 1, 16, ServiceClass.LC)
    daemon.tick()
    daemon.detach(1)
    assert daemon.workloads == {}
    assert daemon.qos.workloads == {}
    assert daemon.quotas == {}
    assert 1 not in daemon.credits.credits
    daemon.detach(1)  # idempotent


def test_tick_empty_daemon_is_noop():
    _, _, _, daemon = build_world()
    assert daemon.tick() is None
    assert daemon.quotas == {}


def test_tick_promotes_hot_slow_pages_within_quota():
    machine, alloc, lru, daemon = build_world(fast=32)
    rt, vma = attach_workload(machine, alloc, lru, daemon, 1, 24, ServiceClass.LC, prefer_tier=1)
    # Everything starts slow; heat 8 pages hard.
    hot = list(range(vma.start_vpn, vma.start_vpn + 8))
    heat_pages(rt, hot, count=30)
    daemon.qos.workloads[1].add_sample(0, 100)  # all slow: under target
    daemon.tick()
    assert rt.engine.stats.promotions > 0
    promoted_fast = sum(
        1 for vpn in hot
        if alloc.tier_of_pfn(rt.space.translate(vpn)) == 0
    )
    assert promoted_fast == 8


def test_tick_demotes_over_quota_workload():
    machine, alloc, lru, daemon = build_world(fast=32)
    # LC hog holds all 32 fast pages but only 4 are hot.
    rt1, v1 = attach_workload(machine, alloc, lru, daemon, 1, 32, ServiceClass.LC, prefer_tier=0)
    heat_pages(rt1, list(range(v1.start_vpn, v1.start_vpn + 4)), count=50)
    rt1.profiler.end_epoch()  # make heat visible pre-tick
    # A second workload arrives wanting memory.
    rt2, v2 = attach_workload(machine, alloc, lru, daemon, 2, 32, ServiceClass.BE, prefer_tier=1)
    heat_pages(rt2, list(range(v2.start_vpn, v2.start_vpn + 8)), count=50)
    daemon.qos.workloads[1].add_sample(95, 5)  # satisfied
    daemon.qos.workloads[2].add_sample(0, 100)  # starving
    for _ in range(6):
        daemon.tick()
    # The hog shrank toward its hot set; the starved workload got pages.
    assert rt1.engine.stats.demotions > 0
    assert rt2.engine.stats.promotions > 0
    assert alloc.store.fast_usage(2) > 0
    assert alloc.store.fast_usage(1) < 32


def test_tick_closes_fthr_window_and_installs_quota():
    machine, alloc, lru, daemon = build_world()
    attach_workload(machine, alloc, lru, daemon, 1, 16, ServiceClass.LC)
    qos = daemon.qos.workloads[1]
    qos.add_sample(50, 50)
    daemon.tick()
    assert qos.fthr == pytest.approx(0.5)
    assert qos.window_average() == 0.0  # the window closed
    assert 0.0 < qos.gpt <= 1.0
    assert set(daemon.quotas) == {1}


def test_quotas_respect_capacity():
    machine, alloc, lru, daemon = build_world(fast=32)
    for pid in (1, 2, 3):
        attach_workload(machine, alloc, lru, daemon, pid, 20, ServiceClass.BE, prefer_tier=1)
        daemon.qos.workloads[pid].add_sample(0, 100)
    daemon.tick()
    assert sum(daemon.quotas.values()) <= 32


def test_quota_sum_above_capacity_raises(monkeypatch):
    machine, alloc, lru, daemon = build_world(fast=32)
    for pid in (1, 2):
        attach_workload(machine, alloc, lru, daemon, pid, 20, ServiceClass.BE, prefer_tier=1)
    real = daemon_mod.run_cbfrp

    def over_allocating(capacity_units, demands, service, ledger, rng=None):
        state = real(capacity_units, demands, service, ledger, rng=rng)
        state.allocations = {pid: capacity_units for pid in demands}
        return state

    monkeypatch.setattr(daemon_mod, "run_cbfrp", over_allocating)
    with pytest.raises(ValueError, match="exceed capacity"):
        daemon.tick()
    assert daemon.quotas == {1: 0, 2: 0}  # nothing installed


def test_zero_capacity_rejected():
    alloc = FrameAllocator(fast_frames=32, slow_frames=256)
    with pytest.raises(ValueError):
        VulcanDaemon(alloc, fast_capacity_pages=0)


def vulcan_policy_with(pid, service):
    machine = Machine(small_machine_config(fast_pages=32, slow_pages=256))
    alloc = FrameAllocator(fast_frames=32, slow_frames=256)
    lru = LruSubsystem(n_cpus=machine.cpu.n_cores)
    policy = VulcanPolicy(machine, alloc, lru, seed=0)
    space, _ = populated_space(alloc, pid, 16, prefer_tier=1)
    policy.register_workload(pid, f"w{pid}", space, service, {0: 0, 1: 1})
    return policy


def test_policy_and_daemon_share_one_record(monkeypatch):
    policy = vulcan_policy_with(7, ServiceClass.BE)
    assert policy.daemon.workloads[7] is policy.workloads[7]

    seen = []
    real = daemon_mod.run_cbfrp

    def spy(capacity_units, demands, service, ledger, rng=None):
        seen.append(dict(service))
        return real(capacity_units, demands, service, ledger, rng=rng)

    monkeypatch.setattr(daemon_mod, "run_cbfrp", spy)
    assert policy.update_service(7, ServiceClass.LC) is ServiceClass.BE
    policy.end_epoch()
    assert seen == [{7: ServiceClass.LC}]


def test_record_tier_samples_pools_one_epoch():
    policy = vulcan_policy_with(3, ServiceClass.LC)
    policy.record_tier_samples(3, np.array([3, 4]), np.array([5, 6]))
    assert policy.daemon.qos.workloads[3].window_average() == 7 / 18
