"""record_plan over a span view against a per-access reference.

The reference reads the page table once per access and scatters each
access into the frame counters one at a time, with the scalar
``note_access`` for sharing transitions: the semantics the span-view
path must reproduce exactly.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.page_store import PageStatsStore
from repro.profiling.base import EpochPlan
from tests.conftest import make_process

N_THREADS = 3
#: every store column, so a write the reference does not make shows
_STORE_COLUMNS = PageStatsStore._COLUMNS


def make_twin() -> tuple[AddressSpace, list[int]]:
    """Two VMAs with a guard gap between them, so plan spans cover
    unmapped vpns; the first 10 frames are fast.  Each page is
    first-touched by thread ``vpn % N_THREADS``."""
    alloc = FrameAllocator(fast_frames=10, slow_frames=64)
    proc = make_process(n_threads=N_THREADS)
    space = AddressSpace(proc, alloc)
    vpns: list[int] = []
    for n_pages in (12, 9):
        vma = proc.mmap(n_pages)
        space.populate(vma, vma.vpns() % N_THREADS)
        vpns.extend(vma.vpns().tolist())
    return space, vpns


def reference_record(space: AddressSpace, plan: EpochPlan, cycle: int):
    repl = space.process.repl
    flat = repl.flat
    store = space.allocator.store

    def pfn_of(vpn: int) -> int:
        i = vpn - flat.base
        return int(flat.pfn[i]) if 0 <= i < flat.pfn.size else -1

    unmapped = [v for v in plan.vpns.tolist() if pfn_of(v) < 0]
    if unmapped:
        raise KeyError(f"vpn {min(unmapped)} not mapped; populate() the VMA first")
    fast = []
    for seg in plan.segments():
        n_fast = 0
        for vpn, write in zip(seg.vpns.tolist(), seg.is_write.tolist()):
            p = pfn_of(vpn)
            n_fast += p < store.fast_frames
            (store.epoch_writes if write else store.epoch_reads)[p] += 1
            store.last_access_cycle[p] = cycle
            store.touched[p] = True
        for vpn in sorted(set(seg.vpns.tolist())):
            space.minor_faults += repl.note_access(vpn, seg.tid)
        fast.append(n_fast)
    fast = np.array(fast, dtype=np.int64)
    return fast, np.diff(plan.offsets) - fast


def snapshot(space: AddressSpace):
    store = space.allocator.store
    repl = space.process.repl
    flat = repl.flat
    return (
        {name: getattr(store, name).copy() for name in _STORE_COLUMNS},
        (flat.base, flat.pfn.copy(), flat.owner.copy(), flat.value.copy(), flat.mapped),
        dataclasses.replace(repl.stats),
        {k: set(v) for k, v in repl._leaf_tids.items()},
        space.minor_faults,
    )


def assert_same(a, b) -> None:
    cols_a, flat_a, stats_a, leaves_a, minor_a = a
    cols_b, flat_b, stats_b, leaves_b, minor_b = b
    for name in _STORE_COLUMNS:
        np.testing.assert_array_equal(cols_a[name], cols_b[name], err_msg=name)
    assert flat_a[0] == flat_b[0] and flat_a[4] == flat_b[4]
    for x, y in zip(flat_a[1:4], flat_b[1:4]):
        np.testing.assert_array_equal(x, y)
    assert stats_a == stats_b
    assert leaves_a == leaves_b
    assert minor_a == minor_b


def make_plan(segments) -> EpochPlan:
    """An :class:`EpochPlan` from ``(tid, vpns, is_write)`` segments."""
    vpns = [np.asarray(v, dtype=np.int64) for _, v, _ in segments]
    writes = [np.asarray(w, dtype=bool) for _, _, w in segments]
    return EpochPlan(
        pid=1,
        vpns=np.concatenate(vpns),
        is_write=np.concatenate(writes),
        offsets=np.concatenate([[0], np.cumsum([v.size for v in vpns])]).astype(np.int64),
        tids=np.array([t for t, _, _ in segments], dtype=np.int64),
    )


def random_segments(rng, vpns, sizes, write_p):
    pool = np.array(vpns, dtype=np.int64)
    return [
        (int(rng.integers(N_THREADS)), rng.choice(pool, size),
         rng.random(size) < write_p)
        for size in sizes
    ]


CASES = {
    # few distinct pages, many accesses each, every thread
    "repeated": dict(sizes=(40, 35, 50, 20), write_p=0.3, pages=5),
    "empty_segments": dict(sizes=(0, 30, 0, 0, 25, 0), write_p=0.4, pages=21),
    "all_write": dict(sizes=(30, 30, 30), write_p=1.0, pages=21),
    "no_write": dict(sizes=(30, 30, 30), write_p=0.0, pages=21),
    "one_access": dict(sizes=(1,), write_p=0.5, pages=21),
    # every access on one page: a one-offset span, two key bins
    "single_offset": dict(sizes=(25, 0, 40), write_p=0.5, pages=1),
    "single_offset_all_write": dict(sizes=(10, 15), write_p=1.0, pages=1),
}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_record_plan_matches_per_access_reference(case, seed):
    spec = CASES[case]
    rng = np.random.default_rng(seed)
    got_space, vpns = make_twin()
    ref_space, _ = make_twin()
    pages = rng.choice(np.array(vpns), spec["pages"], replace=False)
    # Three epochs in a row, so later epochs see earlier transitions.
    for epoch in range(3):
        plan = make_plan(random_segments(rng, pages, spec["sizes"], spec["write_p"]))
        got = got_space.record_plan(plan, cycle=10 + epoch)
        want = reference_record(ref_space, plan, cycle=10 + epoch)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
        assert_same(snapshot(got_space), snapshot(ref_space))


@pytest.mark.parametrize(
    "unmapped",
    [
        "guard_gap",  # inside the table, between the two VMAs
        "gap_and_tail",  # two unmapped vpns, the smaller one is reported
        "below_table",  # outside the table's range
        "above_table",
        "gap_and_above",  # one unmapped vpn inside the table, a larger one past it
    ],
)
def test_unmapped_vpn_raises_the_reference_error_before_any_write(unmapped):
    space, vpns = make_twin()
    flat = space.process.repl.flat
    gap = vpns[11] + 1  # first vpn after the first VMA
    bad = {
        "guard_gap": [gap],
        "gap_and_tail": [gap + 3, gap],
        "below_table": [flat.base - 1],
        "above_table": [flat.base + flat.pfn.size + 5],
        "gap_and_above": [flat.base + flat.pfn.size + 5, gap],
    }[unmapped]
    plan = make_plan([
        (0, [vpns[0], vpns[5]], [False, True]),
        (1, [vpns[-1], *bad, vpns[3]], [True, False] + [False] * len(bad)),
    ])
    ref_space, _ = make_twin()
    with pytest.raises(KeyError) as want:
        reference_record(ref_space, plan, cycle=1)
    before = snapshot(space)
    with pytest.raises(KeyError) as got:
        space.record_plan(plan, cycle=1)
    assert str(got.value) == str(want.value)
    assert f"vpn {min(bad)} not mapped" in str(got.value)
    assert_same(snapshot(space), before)
