"""Physical frame metadata."""

import numpy as np
import pytest

from repro.mm.page import PageState, PhysPage
from repro.mm.page_store import PageStatsStore


def store_page(state: PageState = PageState.FREE) -> tuple[PhysPage, PageStatsStore]:
    """A view over frame 1 of its own two-frame store."""
    store = PageStatsStore(n_frames=2, fast_frames=2)
    return PhysPage(pfn=1, tier_id=0, state=state, store=store), store


def access(store: PageStatsStore, pfn: int, *, reads=0, writes=0, cycle=0) -> None:
    """Account accesses to one frame the way an epoch does."""
    store.record_epoch_rows(np.array([pfn]), np.array([reads]), np.array([writes]), cycle)


def test_attach_detach_lifecycle():
    p = PhysPage(pfn=1, tier_id=0)
    p.attach(pid=10, vpn=100)
    assert p.state is PageState.MAPPED
    assert (p.pid, p.vpn) == (10, 100)
    p.detach()
    assert p.state is PageState.FREE
    assert p.pid is None and p.vpn is None


def test_double_attach_rejected():
    p = PhysPage(pfn=1, tier_id=0)
    p.attach(10, 100)
    with pytest.raises(ValueError):
        p.attach(11, 101)


def test_shadow_frame_can_be_reattached():
    p = PhysPage(pfn=1, tier_id=1)
    p.attach(10, 100)
    p.state = PageState.SHADOW
    p.attach(10, 100)  # remap-demotion reattaches the shadow
    assert p.state is PageState.MAPPED


def test_access_accounting():
    p, store = store_page()
    p.attach(1, 1)
    access(store, 1, reads=3, cycle=5)
    access(store, 1, writes=1, cycle=9)
    assert p.epoch_reads == 3 and p.epoch_writes == 1
    assert p.last_access_cycle == 9
    assert store.touched[1]


def test_epoch_counters_reset_independently():
    p, store = store_page()
    access(store, 1, reads=5, cycle=1)
    p.reset_epoch_counters()
    assert p.epoch_reads == 0 and not store.touched[1]
    assert p.last_access_cycle == 1  # the recency stamp survives


def test_detach_clears_stats():
    p, store = store_page()
    p.attach(1, 1)
    access(store, 1, reads=2, writes=1, cycle=1)
    p.detach()
    assert p.epoch_reads == 0 and p.epoch_writes == 0
    assert not store.touched[1]
