"""Property tests for chunked PageStatsStore growth and FreeFrameList.

The million-frame contract: a store over ``n_frames`` materializes only
a chunk-aligned prefix (``capacity``), frames beyond it are *virgin* —
implicitly FREE, zero counters, ``in_free_list == free_fill`` — and
every observable behaviour must match a store that preallocated all
``n_frames`` densely.  These tests drive allocation across chunk
boundaries and compare against the dense equivalents.
"""

from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from repro.mm.frame_alloc import FrameAllocator, FreeFrameList
from repro.mm.page import PhysPage
from repro.mm.page_store import NONE_SENTINEL, STATE_FREE, STATE_MAPPED, PageStatsStore

CHUNK = 16  # tests shrink the chunk so boundaries are cheap to cross


def make_store(n_frames: int, fast: int | None = None) -> PageStatsStore:
    return PageStatsStore(
        n_frames=n_frames,
        fast_frames=fast if fast is not None else n_frames // 2,
        chunk_frames=CHUNK,
    )


class TestChunkedGrowth:
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_construction_materializes_at_most_one_chunk(self, n: int) -> None:
        store = make_store(n, fast=max(n // 2, 1))
        assert store.capacity == min(n, CHUNK)
        for name in store._COLUMNS:
            assert getattr(store, name).size == store.capacity

    @pytest.mark.parametrize("limit", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_ensure_is_chunk_aligned_and_capped(self, limit: int) -> None:
        store = make_store(6 * CHUNK)
        store.ensure(limit)
        assert store.capacity % CHUNK == 0 or store.capacity == store.n_frames
        assert store.capacity >= limit
        # growth doubles: repeated +1 extensions are amortized O(1)
        cap = store.capacity
        store.ensure(cap + 1)
        assert store.capacity == min(2 * cap, store.n_frames)

    def test_ensure_beyond_n_frames_raises(self) -> None:
        store = make_store(CHUNK)
        with pytest.raises(ValueError, match="exceeds"):
            store.ensure(CHUNK + 1)

    def test_grown_rows_have_virgin_defaults(self) -> None:
        store = make_store(4 * CHUNK, fast=CHUNK + 3)
        store.free_fill = True
        lo = store.capacity
        store.ensure(3 * CHUNK)
        span = slice(lo, store.capacity)
        assert (store.state[span] == STATE_FREE).all()
        assert (store.pid[span] == NONE_SENTINEL).all()
        assert (store.vpn[span] == NONE_SENTINEL).all()
        assert (store.epoch_reads[span] == 0).all() and (store.epoch_writes[span] == 0).all()
        assert (store.last_access_cycle[span] == 0).all()
        assert not store.touched[span].any()
        assert store.in_free_list[span].all()  # free_fill respected
        # tier partition holds across the growth boundary
        pfns = np.arange(lo, store.capacity)
        tiers = [PhysPage(pfn=p, store=store).tier_id for p in pfns.tolist()]
        assert tiers == (pfns >= store.fast_frames).astype(int).tolist()

    def test_growth_preserves_written_prefix(self) -> None:
        store = make_store(4 * CHUNK)
        store.pid[3] = 42
        store.vpn[3] = 99
        store.state[3] = STATE_MAPPED
        store.epoch_writes[5] = 6
        store.touched[5] = True
        store.ensure(2 * CHUNK + 1)
        assert int(store.pid[3]) == 42 and int(store.vpn[3]) == 99
        assert int(store.epoch_writes[5]) == 6 and store.touched[5]


class TestAllocatorAcrossChunks:
    def _allocator(self, fast: int = CHUNK + 2, slow: int = 3 * CHUNK) -> FrameAllocator:
        return FrameAllocator(fast_frames=fast, slow_frames=slow, chunk_frames=CHUNK)

    @staticmethod
    def _attach(alloc: FrameAllocator, pfns, pid: int = 7) -> None:
        store = alloc.store
        for pfn in pfns:
            store.pid[pfn] = pid
            store.vpn[pfn] = pfn
            store.state[pfn] = STATE_MAPPED

    @pytest.mark.parametrize("count", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_allocate_across_the_chunk_boundary(self, count: int) -> None:
        alloc = self._allocator()
        pfns = [alloc.allocate_pfn(0, fallback=True) for _ in range(count)]
        assert pfns == list(range(count))  # virgin frames pop ascending
        assert alloc.store.capacity >= count
        assert not alloc.store.in_free_list[pfns].any()
        self._attach(alloc, pfns)
        alloc.check_consistency()

    def test_free_and_reuse_across_chunks(self) -> None:
        alloc = self._allocator()
        pfns = [alloc.allocate_pfn(1) for _ in range(CHUNK + 4)]
        self._attach(alloc, pfns)
        alloc.check_consistency()
        # free frames from both sides of the boundary, ensure FIFO reuse
        victims = [pfns[0], pfns[CHUNK - 1], pfns[CHUNK], pfns[CHUNK + 1]]
        for pfn in victims:
            alloc.free(pfn)
        alloc.check_consistency()
        # virgin frames pop first; once exhausted, recycled pop FIFO
        n_virgin_left = alloc.tiers[1].free_list.virgin_range[1] \
            - alloc.tiers[1].free_list.virgin_range[0]
        reused = [alloc.allocate_pfn(1) for _ in range(n_virgin_left + len(victims))]
        assert reused[n_virgin_left:] == victims  # FIFO reuse order
        self._attach(alloc, reused)
        alloc.check_consistency()

    def test_double_free_detected_across_chunks(self) -> None:
        alloc = self._allocator()
        pfns = [alloc.allocate_pfn(1) for _ in range(CHUNK + 1)]
        alloc.free(pfns[-1])
        with pytest.raises(ValueError, match="double free"):
            alloc.free(pfns[-1])

    def test_free_of_virgin_frame_rejected(self) -> None:
        alloc = self._allocator()
        with pytest.raises(ValueError, match="never allocated"):
            alloc.free(alloc.tiers[1].base_pfn + 2 * CHUNK)

    def test_owned_and_foreign_frames_see_only_materialized(self) -> None:
        alloc = self._allocator()
        store = alloc.store
        pfns = [alloc.allocate_pfn(1) for _ in range(CHUNK + 3)]
        for pfn in pfns:
            store.pid[pfn] = 11
            store.vpn[pfn] = pfn
            store.state[pfn] = STATE_MAPPED
        np.testing.assert_array_equal(store.owned_frames(11), np.asarray(pfns))
        assert store.foreign_frames({11}).size == 0
        assert store.foreign_frames(set()).size == len(pfns)
        # virgin frames are implicitly FREE: never reported as owned
        assert store.owned_frames(NONE_SENTINEL).size == 0

    def test_check_consistency_catches_stray_bit_in_grown_chunk(self) -> None:
        alloc = self._allocator()
        pfns = [alloc.allocate_pfn(1) for _ in range(CHUNK + 2)]
        alloc.store.in_free_list[pfns[-1]] = True  # not actually listed
        with pytest.raises(RuntimeError, match="free list and bitmap disagree"):
            alloc.check_consistency()


class TestFreeFrameListEquivalence:
    """FreeFrameList must reproduce ``deque(range(base, base+total))``."""

    def _both(self, base: int = 5, total: int = 12):
        return FreeFrameList(base, total), deque(range(base, base + total))

    def test_popleft_order_matches_dense_deque(self) -> None:
        ffl, dense = self._both()
        rng = np.random.default_rng(0)
        for step in range(40):
            if dense and rng.random() < 0.6:
                assert ffl.popleft() == dense.popleft()
            elif dense and rng.random() < 0.3:
                assert ffl.pop() == dense.pop()
            else:
                pfn = 100 + step
                ffl.append(pfn)
                dense.append(pfn)
            assert len(ffl) == len(dense)
            assert list(ffl) == list(dense)

    def test_bool_len_contains(self) -> None:
        ffl, dense = self._both(0, 3)
        assert bool(ffl) and len(ffl) == 3 and 2 in ffl and 3 not in ffl
        for _ in range(3):
            ffl.popleft()
            dense.popleft()
        assert not ffl and len(ffl) == 0
        with pytest.raises(IndexError):
            ffl.pop()

    def test_getitem_matches_dense(self) -> None:
        ffl, dense = self._both(2, 6)
        ffl.popleft(); dense.popleft()
        ffl.append(77); dense.append(77)
        for i in range(len(dense)):
            assert ffl[i] == dense[i]
        assert ffl[-1] == dense[-1]
        with pytest.raises(IndexError):
            ffl[len(dense)]

    def test_virgin_range_and_recycled_array(self) -> None:
        ffl = FreeFrameList(10, 4)
        assert ffl.virgin_range == (10, 14)
        ffl.popleft()
        ffl.append(99)
        assert ffl.virgin_range == (11, 14)
        np.testing.assert_array_equal(ffl.recycled_array(), [99])
        # pop() takes the recycled tail first, then shrinks the virgin end
        assert ffl.pop() == 99
        assert ffl.pop() == 13
        assert ffl.virgin_range == (11, 13)
