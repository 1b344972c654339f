"""Processes, VMAs, demand paging, epoch-plan accounting."""

import numpy as np
import pytest

from repro.mm.address_space import AddressSpace, Process, Vma
from repro.mm.frame_alloc import FrameAllocator
from repro.profiling.base import EpochPlan
from tests.conftest import make_process, populated_space


def make_space(fast=8, slow=64, n_threads=4, replication=True):
    alloc = FrameAllocator(fast_frames=fast, slow_frames=slow)
    proc = make_process(n_threads=n_threads, replication=replication)
    return AddressSpace(proc, alloc), proc, alloc


def test_vma_basics():
    v = Vma(start_vpn=100, n_pages=10)
    assert v.end_vpn == 110
    assert v.contains(100) and v.contains(109)
    assert not v.contains(110)
    np.testing.assert_array_equal(v.vpns(), np.arange(100, 110))
    with pytest.raises(ValueError):
        Vma(start_vpn=0, n_pages=0)


def test_mmap_non_overlapping():
    p = make_process()
    a = p.mmap(10)
    b = p.mmap(10)
    assert a.end_vpn <= b.start_vpn
    assert p.vma_for(a.start_vpn) is a
    assert p.vma_for(b.start_vpn) is b
    assert p.vma_for(a.end_vpn) is None  # guard gap


def test_fault_prefers_fast_then_falls_back():
    space, proc, alloc = make_space(fast=2, slow=8)
    vma = proc.mmap(4)
    tiers = [space.fault(vma.start_vpn + i, tid=0).tier_id for i in range(4)]
    assert tiers == [0, 0, 1, 1]
    assert space.major_faults == 4


def test_fault_outside_vma_segfaults():
    space, proc, _ = make_space()
    proc.mmap(4)
    with pytest.raises(KeyError):
        space.fault(1, tid=0)


def test_refault_rejected():
    space, proc, _ = make_space()
    vma = proc.mmap(2)
    space.fault(vma.start_vpn, tid=0)
    with pytest.raises(ValueError):
        space.fault(vma.start_vpn, tid=0)


def test_translate():
    space, proc, alloc = make_space()
    vma = proc.mmap(2)
    assert space.translate(vma.start_vpn) is None
    page = space.fault(vma.start_vpn, tid=0)
    assert space.translate(vma.start_vpn) == page.pfn


def test_rss_tracks_faulted_pages():
    space, proc, _ = make_space()
    vma = proc.mmap(6)
    assert proc.rss_pages == 0
    space.populate(vma, 0)
    assert proc.rss_pages == 6


def test_populate_idempotent():
    space, proc, _ = make_space()
    vma = proc.mmap(4)
    assert space.populate(vma, 0) == 4
    assert space.populate(vma, 0) == 0


def plan_of(pid, *segments):
    """An :class:`EpochPlan` from ``(tid, vpns, writes)`` segments."""
    vpns = [np.asarray(v, dtype=np.int64) for _, v, _ in segments]
    writes = [np.asarray(w, dtype=bool) for _, _, w in segments]
    sizes = [v.size for v in vpns]
    return EpochPlan(
        pid=pid,
        vpns=np.concatenate(vpns) if vpns else np.empty(0, dtype=np.int64),
        is_write=np.concatenate(writes) if writes else np.empty(0, dtype=bool),
        offsets=np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64),
        tids=np.array([t for t, _, _ in segments], dtype=np.int64),
    )


def test_record_batch_tier_split():
    """record_plan splits each segment's accesses by tier."""
    alloc = FrameAllocator(fast_frames=2, slow_frames=8)
    space = populated_space(alloc, n_pages=4)  # 2 fast + 2 slow
    s = space.process.vmas[0].start_vpn
    plan = plan_of(1, (0, [s, s + 1, s + 3], [False] * 3), (1, [s + 2, s + 3], [False] * 2))
    fast, slow = space.record_plan(plan)
    assert fast.tolist() == [2, 0]
    assert slow.tolist() == [1, 2]


def test_record_batch_counts_and_writes():
    """Per-frame read/write counts sum across segments; cycle stamps."""
    alloc = FrameAllocator(fast_frames=8, slow_frames=8)
    space = populated_space(alloc, n_pages=2, n_threads=1)
    s = space.process.vmas[0].start_vpn
    plan = plan_of(
        1,
        (0, [s] * 3 + [s + 1] * 2, [True, False, False, False, False]),
        (0, [s] * 2 + [s + 1], [False, True, False]),
    )
    space.record_plan(plan, cycle=3)
    p0 = alloc.page(space.translate(s))
    p1 = alloc.page(space.translate(s + 1))
    assert (p0.epoch_reads, p0.epoch_writes) == (3, 2)
    assert (p1.epoch_reads, p1.epoch_writes) == (3, 0)
    assert p0.last_access_cycle == p1.last_access_cycle == 3


def test_record_batch_unmapped_rejected():
    space, proc, _ = make_space()
    vma = proc.mmap(2)
    space.fault(vma.start_vpn, tid=0)
    with pytest.raises(KeyError):
        space.record_plan(plan_of(1, (0, [vma.start_vpn + 1], [False])))
    with pytest.raises(KeyError):
        space.record_plan(plan_of(1, (0, [vma.end_vpn + 100], [False])))


def test_record_batch_shape_mismatch():
    """An epoch plan's access arrays must agree in shape."""
    with pytest.raises(ValueError):
        EpochPlan(
            pid=1, vpns=np.array([1, 2]), is_write=np.array([False]),
            offsets=np.array([0, 2]), tids=np.array([0]),
        )


def test_record_batch_empty():
    space, _, _ = make_space()
    fast, slow = space.record_plan(plan_of(1, (0, [], []), (1, [], [])))
    assert fast.tolist() == [0, 0] and slow.tolist() == [0, 0]


def test_record_batch_promotes_sharing():
    """A later segment's thread touching an earlier-owned page shares it."""
    alloc = FrameAllocator(fast_frames=8, slow_frames=8)
    space = populated_space(alloc, n_pages=2, n_threads=2)  # page i owned by tid i
    s = space.process.vmas[0].start_vpn
    repl = space.process.repl
    plan = plan_of(1, (0, [s], [False]), (1, [s + 1], [False]))
    space.record_plan(plan)
    assert repl.is_private(s) and repl.is_private(s + 1)
    plan = plan_of(1, (1, [s + 1], [False]), (0, [s + 1], [False]))
    space.record_plan(plan)  # tid 0 touches tid 1's page
    assert repl.is_private(s)
    assert not repl.is_private(s + 1)
    assert space.minor_faults == 1
