"""VulcanDaemon: end-to-end management epochs on a small machine."""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.core.daemon import VulcanDaemon, WorkloadHandle
from repro.machine.platform import Machine
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, OptimizationFlags
from repro.mm.shadow import ShadowTracker
from repro.profiling.base import AccessBatch
from repro.profiling.pebs import PebsProfiler
from tests.conftest import make_process, small_machine_config


def build_world(fast=32, slow=256):
    machine = Machine(small_machine_config(fast_pages=fast, slow_pages=slow))
    alloc = FrameAllocator(fast_frames=fast, slow_frames=slow)
    lru = LruSubsystem(n_cpus=machine.cpu.n_cores)
    daemon = VulcanDaemon(alloc, fast_capacity_pages=fast, unit_pages=4, promotion_budget_per_epoch=16)
    return machine, alloc, lru, daemon


def attach_workload(machine, alloc, lru, daemon, pid, n_pages, service, prefer_tier=0):
    proc = make_process(pid=pid, n_threads=2)
    vma = proc.mmap(n_pages)
    space = AddressSpace(proc, alloc)
    for i, vpn in enumerate(range(vma.start_vpn, vma.end_vpn)):
        space.fault(vpn, tid=i % 2, prefer_tier=prefer_tier)
    engine = MigrationEngine(
        machine, alloc, space, lru,
        flags=OptimizationFlags(opt_prep=True, opt_tlb=True),
        thread_core_map={0: 0, 1: 1},
        shadow=ShadowTracker(),
        rng=np.random.default_rng(pid),
    )
    prof = PebsProfiler(period=1)
    handle = WorkloadHandle(
        pid=pid, name=f"w{pid}", service=service, space=space,
        engine=engine, profiler=prof, shadow=engine.shadow,
    )
    daemon.attach(handle)
    return handle, vma


def heat_pages(handle, vpns, count=20, write=False):
    batch = AccessBatch(
        pid=handle.pid,
        tid=0,
        vpns=np.repeat(np.asarray(vpns, dtype=np.int64), count),
        is_write=np.full(len(vpns) * count, write, dtype=bool),
    )
    handle.profiler.observe(batch)


def test_attach_registers_everywhere():
    machine, alloc, lru, daemon = build_world()
    h, _ = attach_workload(machine, alloc, lru, daemon, 1, 16, ServiceClass.LC)
    assert 1 in daemon.workloads
    assert 1 in daemon.qos.workloads
    assert 1 in daemon.partition.quotas
    with pytest.raises(ValueError):
        daemon.attach(h)


def test_detach_cleans_up():
    machine, alloc, lru, daemon = build_world()
    attach_workload(machine, alloc, lru, daemon, 1, 16, ServiceClass.LC)
    daemon.detach(1)
    assert daemon.workloads == {}
    assert daemon.qos.workloads == {}
    daemon.detach(1)  # idempotent


def test_tick_empty_daemon_is_noop():
    _, _, _, daemon = build_world()
    report = daemon.tick()
    assert report.quotas == {}
    assert report.promotions == 0


def test_tick_promotes_hot_slow_pages_within_quota():
    machine, alloc, lru, daemon = build_world(fast=32)
    h, vma = attach_workload(machine, alloc, lru, daemon, 1, 24, ServiceClass.LC, prefer_tier=1)
    # Everything starts slow; heat 8 pages hard.
    hot = list(range(vma.start_vpn, vma.start_vpn + 8))
    heat_pages(h, hot, count=30)
    qos = daemon.qos.workloads[1]
    qos.add_sample(0, 100)  # all slow: under target
    report = daemon.tick()
    assert report.promotions > 0
    promoted_fast = sum(
        1 for vpn in hot
        if alloc.tier_of_pfn(h.space.translate(vpn)) == 0
    )
    assert promoted_fast == 8


def test_tick_demotes_over_quota_workload():
    machine, alloc, lru, daemon = build_world(fast=32)
    # LC hog holds all 32 fast pages but only 4 are hot.
    h1, v1 = attach_workload(machine, alloc, lru, daemon, 1, 32, ServiceClass.LC, prefer_tier=0)
    heat_pages(h1, list(range(v1.start_vpn, v1.start_vpn + 4)), count=50)
    h1.profiler.end_epoch()  # make heat visible pre-tick
    # A second workload arrives wanting memory.
    h2, v2 = attach_workload(machine, alloc, lru, daemon, 2, 32, ServiceClass.BE, prefer_tier=1)
    heat_pages(h2, list(range(v2.start_vpn, v2.start_vpn + 8)), count=50)
    daemon.qos.workloads[1].add_sample(95, 5)  # satisfied
    daemon.qos.workloads[2].add_sample(0, 100)  # starving
    for _ in range(6):
        report = daemon.tick()
    # The hog shrank toward its hot set; the starved workload got pages.
    usage2 = daemon.partition.usage[2]
    assert usage2 > 0
    assert report.demotions >= 0
    assert daemon.partition.usage[1] < 32


def test_report_contains_qos_series():
    machine, alloc, lru, daemon = build_world()
    h, _ = attach_workload(machine, alloc, lru, daemon, 1, 16, ServiceClass.LC)
    daemon.qos.workloads[1].add_sample(50, 50)
    report = daemon.tick()
    assert report.fthr[1] == pytest.approx(0.5)
    assert 0.0 < report.gpt[1] <= 1.0
    assert 1 in report.quotas
    assert 1 in report.plans


def test_quotas_respect_capacity():
    machine, alloc, lru, daemon = build_world(fast=32)
    for pid in (1, 2, 3):
        h, _ = attach_workload(machine, alloc, lru, daemon, pid, 20, ServiceClass.BE, prefer_tier=1)
        daemon.qos.workloads[pid].add_sample(0, 100)
    report = daemon.tick()
    assert sum(report.quotas.values()) <= 32
