"""Frame allocator: tiers, fallback, watermarks, conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mm.frame_alloc import FrameAllocator, OutOfFramesError


def make_alloc(fast=8, slow=16) -> FrameAllocator:
    return FrameAllocator(fast_frames=fast, slow_frames=slow)


def test_pfn_space_partitioned_by_tier():
    a = make_alloc(fast=8, slow=16)
    assert a.tier_of_pfn(0) == 0
    assert a.tier_of_pfn(7) == 0
    assert a.tier_of_pfn(8) == 1
    assert a.tier_of_pfn(23) == 1
    with pytest.raises(ValueError):
        a.tier_of_pfn(24)
    with pytest.raises(ValueError):
        a.tier_of_pfn(-1)


def test_allocate_from_each_tier():
    a = make_alloc()
    f = a.allocate(0)
    s = a.allocate(1)
    assert a.tier_of_pfn(f.pfn) == 0 and f.tier_id == 0
    assert a.tier_of_pfn(s.pfn) == 1 and s.tier_id == 1


def test_fallback_to_slow_when_fast_exhausted():
    a = make_alloc(fast=2, slow=4)
    a.allocate(0)
    a.allocate(0)
    with pytest.raises(OutOfFramesError):
        a.allocate(0, fallback=False)
    p = a.allocate(0, fallback=True)
    assert p.tier_id == 1


def test_slow_exhaustion_never_falls_back_to_fast():
    a = make_alloc(fast=2, slow=1)
    a.allocate(1)
    with pytest.raises(OutOfFramesError):
        a.allocate(1, fallback=True)


def test_free_and_reuse():
    a = make_alloc(fast=1, slow=1)
    p = a.allocate(0)
    a.free(p.pfn)
    p2 = a.allocate(0)
    assert p2.pfn == p.pfn


def test_double_free_rejected():
    a = make_alloc()
    p = a.allocate(0)
    a.free(p.pfn)
    with pytest.raises(ValueError):
        a.free(p.pfn)


def test_free_unallocated_rejected():
    with pytest.raises(ValueError):
        make_alloc().free(3)


def test_watermarks():
    a = FrameAllocator(fast_frames=100, slow_frames=100, low_watermark_frac=0.1, high_watermark_frac=0.2)
    tier = a.tiers[0]
    for _ in range(95):
        a.allocate(0)
    assert tier.below_low_watermark()  # 5 free < 10
    assert tier.frames_to_reclaim() == 15  # to reach 20 free


def test_bad_watermark_ordering_rejected():
    with pytest.raises(ValueError):
        FrameAllocator(4, 4, low_watermark_frac=0.5, high_watermark_frac=0.1)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 1)), max_size=60))
def test_conservation_property(ops):
    """Alloc/free sequences never lose or duplicate frames."""
    a = make_alloc(fast=6, slow=6)
    live: list[int] = []
    for do_alloc, tier in ops:
        if do_alloc:
            try:
                live.append(a.allocate(tier).pfn)
            except OutOfFramesError:
                pass
        elif live:
            a.free(live.pop())
    assert len(set(live)) == len(live)  # no duplicate handouts
    assert a.free_frames(0) + a.free_frames(1) + len(live) == 12


# -- bulk teardown (free_pid) ----------------------------------------------------

def _alloc_for_pid(a, pid, *, fast=0, slow=0, vpn0=100):
    pages = []
    for i in range(fast):
        p = a.allocate(0)
        p.attach(pid, vpn0 + i)
        pages.append(p)
    for i in range(slow):
        p = a.allocate(1)
        p.attach(pid, vpn0 + fast + i)
        pages.append(p)
    return pages


def test_free_pid_releases_all_states_and_counts():
    from repro.mm.page import PageState

    a = make_alloc(fast=8, slow=16)
    mine = _alloc_for_pid(a, pid=1, fast=3, slow=2)
    other = _alloc_for_pid(a, pid=2, fast=1, slow=1, vpn0=900)
    mine[1].state = PageState.MIGRATING
    # A retained shadow twin: slow frame still bound to pid 1 as SHADOW.
    shadow = a.allocate(1)
    shadow.attach(1, 500)
    shadow.state = PageState.SHADOW

    counts = a.free_pid(1)
    assert counts == {"mapped": 4, "migrating": 1, "shadow": 1, "fast": 3, "slow": 3}
    assert a.store.owned_frames(1).size == 0
    # Other pid untouched.
    assert a.store.owned_frames(2).size == 2
    a.check_consistency()


def test_free_pid_leaves_fast_usage_consistent_with_bitmap():
    """The satellite invariant: after teardown, per-pid fast usage and
    the free-list bitmap tell the same story about the fast tier."""
    a = make_alloc(fast=8, slow=16)
    _alloc_for_pid(a, pid=1, fast=4, slow=1)
    _alloc_for_pid(a, pid=2, fast=2, slow=0, vpn0=900)
    a.free_pid(1)
    assert a.store.fast_usage(1) == 0
    assert a.store.fast_usage(2) == 2
    fast = a.tiers[0]
    free_bits = int(a.store.in_free_list[: fast.total].sum())
    assert free_bits == fast.free == fast.total - a.store.fast_usage(2)
    assert sorted(fast.free_list) == sorted(
        int(p) for p in range(fast.total) if a.store.in_free_list[p]
    )
    a.check_consistency()


def test_free_pid_of_unknown_pid_is_empty_noop():
    a = make_alloc()
    counts = a.free_pid(42)
    assert counts == {"mapped": 0, "migrating": 0, "shadow": 0, "fast": 0, "slow": 0}


def test_free_pid_detects_tampered_double_free():
    a = make_alloc()
    pages = _alloc_for_pid(a, pid=1, fast=2)
    a.store.in_free_list[pages[-1].pfn] = True  # corrupt the bitmap
    before = alloc_state(a)
    with pytest.raises(RuntimeError, match=f"teardown double free: pfn {pages[-1].pfn} of pid 1"):
        a.free_pid(1)
    assert alloc_state(a) == before  # raised before freeing the first frame


def alloc_state(a: FrameAllocator) -> dict:
    store = a.store
    return {
        "free_lists": [(list(t.free_list), t.free_list.virgin_range) for t in a.tiers],
        "store": {name: getattr(store, name).tolist() for name in store._COLUMNS},
    }


def scalar_free_pid(a: FrameAllocator, pid: int) -> dict[str, int]:
    """The reference: one free() per owned frame, ascending."""
    from repro.mm.page_store import STATE_MAPPED, STATE_MIGRATING, STATE_SHADOW

    st = a.store
    owned = st.owned_frames(pid)
    counts = {
        "mapped": int((st.state[owned] == STATE_MAPPED).sum()),
        "migrating": int((st.state[owned] == STATE_MIGRATING).sum()),
        "shadow": int((st.state[owned] == STATE_SHADOW).sum()),
        "fast": int((owned < a.tiers[0].total).sum()),
        "slow": int((owned >= a.tiers[0].total).sum()),
    }
    for pfn in owned.tolist():
        if st.in_free_list[pfn]:
            raise RuntimeError(f"teardown double free: pfn {pfn} of pid {pid}")
        a.free(pfn)
    return counts


def churned_allocator(seed: int) -> FrameAllocator:
    """Pids 1-3 interleaved on both tiers, pid 1 holding MAPPED,
    MIGRATING and SHADOW frames, some recycled, some with counters, and
    recycled frames already waiting on both free lists."""
    from repro.mm.page import PageState

    rng = np.random.default_rng(seed)
    a = make_alloc(fast=12, slow=24)
    live = []
    for step in range(60):
        if live and rng.random() < 0.35:
            a.free(live.pop(int(rng.integers(len(live)))).pfn)
            continue
        tier = int(rng.integers(2))
        if not a.tiers[tier].free:
            continue
        page = a.allocate(tier)
        page.attach(1 if rng.random() < 0.5 else int(rng.integers(2, 4)), 100 + step)
        page.epoch_reads = int(rng.integers(3))
        page.state = [PageState.MAPPED, PageState.MIGRATING, PageState.SHADOW][int(rng.integers(3))]
        live.append(page)
    for tier in (0, 1):  # leave a recycled frame waiting on each list
        a.free(next(p for p in live if p.tier_id == tier and p.pid != 1).pfn)
    return a


@pytest.mark.parametrize("seed", range(8))
def test_free_pid_matches_scalar_free_loop(seed):
    bulk, ref = churned_allocator(seed), churned_allocator(seed)
    assert alloc_state(bulk) == alloc_state(ref)
    owned = bulk.store.owned_frames(1)
    assert {1, 3} <= set(bulk.store.state[owned].tolist())  # MAPPED and SHADOW
    assert (owned < 12).any() and (owned >= 12).any()
    assert all(t.free_list.recycled_array().size for t in bulk.tiers)
    for pid in (1, 3, 2):
        assert bulk.free_pid(pid) == scalar_free_pid(ref, pid)
        assert alloc_state(bulk) == alloc_state(ref)
        bulk.check_consistency()


def test_free_pid_rejects_a_never_allocated_frame_before_freeing():
    a = make_alloc()
    pages = _alloc_for_pid(a, pid=1, fast=2, slow=1)
    virgin = a.tiers[1].free_list.virgin_range[0]
    a.store.pid[virgin], a.store.vpn[virgin] = 1, 999  # a virgin frame claims pid 1
    a.store.state[virgin] = 1
    a.store.in_free_list[virgin] = False
    before = alloc_state(a)
    with pytest.raises(ValueError, match=f"pfn {virgin} was never allocated"):
        a.free_pid(1)
    assert alloc_state(a) == before
    assert virgin > max(p.pfn for p in pages)


def test_free_pid_rejects_an_offline_frame_before_freeing():
    a = make_alloc()
    _alloc_for_pid(a, pid=1, fast=2, slow=2)
    (off,) = a.offline_frames(1, 1)
    a.store.pid[off], a.store.vpn[off], a.store.state[off] = 1, 999, 1  # offline, yet bound
    before = alloc_state(a)
    with pytest.raises(ValueError, match=f"pfn {off} was never allocated"):
        a.free_pid(1)
    assert alloc_state(a) == before


def test_check_consistency_reports_a_recycled_frame_listed_twice():
    a = make_alloc(fast=8, slow=16)
    pages = _alloc_for_pid(a, pid=1, fast=3)
    a.free(pages[1].pfn)
    a.free(pages[0].pfn)
    a.check_consistency()
    a.tiers[0].free_list.append(pages[1].pfn)  # listed twice, one bit
    with pytest.raises(RuntimeError, match="free list has duplicates$"):
        a.check_consistency()


# -- capacity events (offline/online) --------------------------------------------

def test_offline_frames_come_from_free_list_tail():
    a = make_alloc(fast=8, slow=16)
    taken = a.offline_frames(0, 3)
    assert len(taken) == 3
    assert a.tiers[0].offline == 3
    assert a.tiers[0].online == 5
    assert a.tiers[0].free == 5
    # Allocation order of the remaining frames is undisturbed.
    p = a.allocate(0)
    assert p.pfn == 0
    p.attach(1, 7)
    a.check_consistency()


def test_offline_clamps_to_free_frames():
    a = make_alloc(fast=4, slow=8)
    _alloc_for_pid(a, pid=1, fast=3)
    taken = a.offline_frames(0, 10)
    assert len(taken) == 1
    assert a.tiers[0].online == 3


def test_online_restores_offlined_frames():
    a = make_alloc(fast=8, slow=16)
    a.offline_frames(0, 4)
    assert a.online_frames(0, 2) == 2
    assert a.tiers[0].offline == 2
    assert a.online_frames(0) == 2  # the rest
    assert a.tiers[0].offline == 0
    assert a.tiers[0].online == a.tiers[0].total == 8
    a.check_consistency()


def test_watermarks_scale_with_online_capacity():
    a = make_alloc(fast=100, slow=16)
    before = a.tiers[0].high_watermark
    a.offline_frames(0, 90)
    # Watermarks are fractions of *online* capacity, so shrinking the
    # tier shrinks them too instead of triggering phantom reclaim.
    assert a.tiers[0].online == 10
    assert a.tiers[0].high_watermark < before
    assert not a.tiers[0].below_low_watermark()
    a.check_consistency()


def test_check_consistency_catches_corruption():
    a = make_alloc()
    p = a.allocate(0)
    p.attach(1, 7)
    a.store.in_free_list[p.pfn] = True  # live frame marked free
    with pytest.raises(RuntimeError):
        a.check_consistency()
