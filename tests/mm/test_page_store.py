"""Property tests for the struct-of-arrays frame store.

Two kinds of guarantees:

* **Store-level** — randomized alloc/access/free/migrate-ish sequences
  keep the parallel arrays internally consistent
  (:meth:`PageStatsStore.check_row_invariants`) and agree with a naive
  per-page shadow model.
* **View coherence** — :class:`PhysPage` is a window onto one row:
  writes through the object are visible in the arrays and vice versa,
  and allocator-produced pages share the allocator's store.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mm.frame_alloc import FrameAllocator
from repro.mm.page import PageState, PhysPage
from repro.mm.page_store import (
    NONE_SENTINEL,
    STATE_FREE,
    STATE_MAPPED,
    STATE_SHADOW,
    PageStatsStore,
)


def make_store(n=64, fast=16):
    return PageStatsStore(n, fast)


# -- store-level properties ------------------------------------------------------


def test_fresh_store_passes_invariants():
    store = make_store()
    store.check_row_invariants()
    assert [PhysPage(pfn=p, store=store).tier_id for p in range(64)] == [0] * 16 + [1] * 48


def test_store_keeps_eight_columns_in_43_bytes_per_frame():
    """Every array the store holds is a listed column (growth copies only
    those), and a frame costs 43 bytes; a column nothing reads should
    not come back."""
    store = make_store()
    arrays = {k for k, v in vars(store).items() if isinstance(v, np.ndarray)}
    assert arrays == set(PageStatsStore._COLUMNS)
    assert len(PageStatsStore._COLUMNS) == 8
    assert sum(getattr(store, c).itemsize for c in PageStatsStore._COLUMNS) == 43


def test_record_batch_matches_scalar_model():
    """Vectorized accounting == the old one-page-at-a-time loop."""
    rng = np.random.default_rng(7)
    store = make_store()
    # Map every frame to pid 1 so counters are legal.
    store.state[:] = STATE_MAPPED
    store.pid[:] = 1
    store.vpn[:] = np.arange(store.n_frames)

    reads = np.zeros(store.n_frames, dtype=np.int64)
    writes = np.zeros(store.n_frames, dtype=np.int64)
    last = np.zeros(store.n_frames, dtype=np.int64)
    recorded = np.zeros(store.n_frames, dtype=bool)
    for cycle in range(1, 20):
        pfns = np.unique(rng.integers(0, store.n_frames, size=10))
        n_r = rng.integers(0, 5, size=pfns.size)
        n_w = rng.integers(0, 5, size=pfns.size)
        store.record_epoch_rows(pfns, n_r, n_w, cycle)
        reads[pfns] += n_r
        writes[pfns] += n_w
        last[pfns] = cycle
        recorded[pfns] = True
        store.check_row_invariants()
    assert (store.epoch_reads == reads).all()
    assert (store.epoch_writes == writes).all()
    assert (store.last_access_cycle == last).all()
    # record_epoch_rows marks every recorded pfn touched, even zero-count rows.
    assert (store.touched == recorded).all()


def test_reset_epoch_counters_clears_only_live_touched_rows():
    store = make_store()
    store.state[:4] = STATE_MAPPED
    store.pid[:4] = 1
    store.vpn[:4] = np.arange(4)
    store.record_epoch_rows(np.arange(4), np.ones(4, np.int64), np.zeros(4, np.int64), 1)
    # Frame 3 goes SHADOW before the reset (demote-after-promote path).
    store.state[3] = STATE_SHADOW
    store.reset_epoch_counters()
    assert (store.epoch_reads[:3] == 0).all()
    assert not store.touched[:3].any()
    # The shadow keeps its counters *and* its touched bit (legacy quirk:
    # the old full-table walk skipped non-PTE-visible frames, so a later
    # remap-demote still found the stale counters and reset them then).
    assert store.epoch_reads[3] == 1
    assert store.touched[3]
    # ...and once it is MAPPED again the next reset clears it.
    store.state[3] = STATE_MAPPED
    store.reset_epoch_counters()
    assert store.epoch_reads[3] == 0
    assert not store.touched[3]


def test_frames_of_pid_and_usage_queries():
    store = make_store(n=32, fast=8)
    for pfn, pid in [(1, 10), (5, 10), (9, 10), (2, 20), (30, 20)]:
        store.state[pfn] = STATE_MAPPED
        store.pid[pfn] = pid
        store.vpn[pfn] = 100 + pfn
    store.state[9] = STATE_SHADOW  # a retained twin: PTE-invisible, still owned
    assert store.owned_frames(10).tolist() == [1, 5, 9]
    assert store.fast_usage(10) == 2
    assert store.fast_usage(20) == 1
    store.epoch_reads[1] = 4
    store.epoch_writes[2] = 9
    store.touched[[1, 2]] = True
    assert store.ground_truth_hotness(10, cut=3) == (1, 1, 1, 2)
    assert store.ground_truth_hotness(20, cut=3) == (1, 1, 0, 1)
    store.check_row_invariants()


@pytest.mark.parametrize("cut", [0, -1])
def test_ground_truth_rejects_a_cut_below_one(cut):
    """Below one access an untouched frame could count as hot, and the
    scan sees only the touched rows above the fast tier."""
    store = make_store()
    with pytest.raises(ValueError, match="at least 1"):
        store.ground_truth_hotness(1, cut=cut)


def test_detach_row_resets_everything():
    store = make_store()
    store.state[7] = STATE_MAPPED
    store.pid[7] = 2
    store.vpn[7] = 42
    store.record_epoch_rows(np.array([7]), np.array([3]), np.array([1]), cycle=9)
    store.detach_row(7)
    assert store.pid[7] == NONE_SENTINEL
    assert store.vpn[7] == NONE_SENTINEL
    assert store.state[7] == STATE_FREE
    assert store.epoch_reads[7] == 0 and store.epoch_writes[7] == 0
    assert not store.touched[7]
    store.check_row_invariants()


# -- view coherence --------------------------------------------------------------


def test_physpage_view_reads_and_writes_the_arrays():
    store = make_store()
    page = PhysPage(pfn=5, store=store)
    page.attach(pid=9, vpn=123)
    assert store.state[5] == STATE_MAPPED
    assert store.pid[5] == 9 and store.vpn[5] == 123
    # Array write shows through the object...
    store.epoch_reads[5] = 4
    assert page.epoch_reads == 4
    # ...and object writes land in the arrays.
    page.epoch_writes = 1
    page.last_access_cycle = 77
    assert store.epoch_writes[5] == 1 and store.touched[5]
    assert store.last_access_cycle[5] == 77
    page.detach()
    assert page.state is PageState.FREE
    store.check_row_invariants()


def test_standalone_physpage_has_private_store():
    """Constructing without store= (unit-test idiom) still works."""
    page = PhysPage(pfn=3, tier_id=1)
    page.attach(pid=1, vpn=7)
    page.epoch_reads += 1
    assert page.epoch_reads == 1
    assert page.tier_id == 1


def test_allocator_pages_share_the_allocator_store():
    alloc = FrameAllocator(fast_frames=4, slow_frames=4)
    page = alloc.allocate(0)
    page.attach(pid=1, vpn=10)
    assert page._store is alloc.store
    assert alloc.store.state[page.pfn] == STATE_MAPPED
    assert not alloc.store.in_free_list[page.pfn]
    alloc.free(page.pfn)
    assert alloc.store.in_free_list[page.pfn]
    alloc.store.check_row_invariants()


def test_allocator_double_free_detected_via_bitmap():
    alloc = FrameAllocator(fast_frames=4, slow_frames=4)
    page = alloc.allocate(0)
    page.attach(pid=1, vpn=10)
    alloc.free(page.pfn)
    with pytest.raises(ValueError, match="double free"):
        alloc.free(page.pfn)
