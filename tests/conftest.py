"""Shared fixtures: small machines, allocators, processes."""

from __future__ import annotations

import pytest

from repro.machine.platform import Machine
from repro.mm.address_space import AddressSpace, Process
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.sim.config import MachineConfig, TierConfig
from repro.sim.units import PAGE_SIZE


def small_machine_config(n_cores: int = 8, fast_pages: int = 64, slow_pages: int = 512) -> MachineConfig:
    """A machine tiny enough for structural tests."""
    return MachineConfig(
        n_cores=n_cores,
        fast=TierConfig(name="fast", capacity_bytes=fast_pages * PAGE_SIZE, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=slow_pages * PAGE_SIZE, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )


@pytest.fixture
def machine() -> Machine:
    return Machine(small_machine_config())


@pytest.fixture
def allocator(machine: Machine) -> FrameAllocator:
    return FrameAllocator(
        fast_frames=machine.fast.total_frames,
        slow_frames=machine.slow.total_frames,
    )


@pytest.fixture
def lru(machine: Machine) -> LruSubsystem:
    return LruSubsystem(n_cpus=machine.cpu.n_cores)


def make_process(pid: int = 1, n_threads: int = 4, replication: bool = True) -> Process:
    proc = Process(pid=pid, name=f"proc{pid}", replication_enabled=replication)
    for tid in range(n_threads):
        proc.spawn_thread(tid)
    return proc


@pytest.fixture
def process() -> Process:
    return make_process()


@pytest.fixture
def space(process: Process, allocator: FrameAllocator) -> AddressSpace:
    return AddressSpace(process, allocator)


def populated_space(
    allocator: FrameAllocator,
    *,
    pid: int = 1,
    n_pages: int = 32,
    n_threads: int = 4,
    replication: bool = True,
) -> AddressSpace:
    """A process with one VMA fully faulted in (round-robin thread touch)."""
    proc = make_process(pid=pid, n_threads=n_threads, replication=replication)
    vma = proc.mmap(n_pages)
    space = AddressSpace(proc, allocator)
    for i, vpn in enumerate(range(vma.start_vpn, vma.end_vpn)):
        space.fault(vpn, tid=i % n_threads, prefer_tier=0)
    return space
