"""The page table and per-thread replication (§3.4 semantics)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mm import pte as P
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.replication import LEVEL_BITS, VPN_LIMIT, ReplicatedPageTables
from tests.conftest import make_process


def make(enabled=True, tids=(0, 1, 2)) -> ReplicatedPageTables:
    r = ReplicatedPageTables(enabled=enabled)
    for t in tids:
        r.register_thread(t)
    return r


def test_fault_installs_owner_tid():
    r = make()
    v = r.handle_fault(100, tid=1, pfn=7)
    assert P.pte_tid(v) == 1
    assert r.is_private(100)
    assert r.sharing_tids(100) == {1}


def test_second_thread_promotes_to_shared():
    r = make()
    r.handle_fault(100, tid=0, pfn=7)
    changed = r.note_access(100, tid=2)
    assert changed is True
    assert not r.is_private(100)
    assert r.sharing_tids(100) == {0, 2}  # only actual sharers, not all threads
    # Third access by the same thread: no further transition.
    assert r.note_access(100, tid=2) is False


def test_owner_access_keeps_private():
    r = make()
    r.handle_fault(100, tid=0, pfn=7)
    assert r.note_access(100, tid=0) is False
    assert r.is_private(100)


def test_sharing_scope_grows_with_leaf_links():
    r = make(tids=(0, 1, 2, 3))
    r.handle_fault(100, tid=0, pfn=7)
    r.note_access(100, tid=1)
    r.note_access(100, tid=3)
    assert r.sharing_tids(100) == {0, 1, 3}


def test_leaf_sharing_single_store_semantics():
    r = make()
    r.handle_fault(100, tid=0, pfn=7)
    r.note_access(100, tid=1)
    r.update(100, P.pte_with_pfn(r.lookup(100), 42))
    # One store: the entry both threads' replicas link names the new PFN.
    assert P.pte_pfn(r.lookup(100)) == 42
    assert r.sharing_tids(100) == {0, 1}
    assert r._leaf_tids[100 >> LEVEL_BITS] == {0, 1}


def test_unmap_disappears_everywhere():
    r = make()
    r.handle_fault(100, tid=0, pfn=7)
    r.note_access(100, tid=1)
    r.unmap(100)
    assert r.lookup(100) is None
    assert r.sharing_tids(100) == set()
    with pytest.raises(KeyError):
        r.is_private(100)


def test_disabled_replication_is_process_wide():
    r = make(enabled=False)
    v = r.handle_fault(100, tid=1, pfn=7)
    assert P.pte_is_shared(v)  # everything marked shared
    assert r.sharing_tids(100) == {0, 1, 2}  # all registered threads
    assert r._leaf_tids == {}  # no thread links a leaf of its own
    assert r.note_access(100, tid=2) is False


def test_pages_in_same_leaf_share_one_leaf_table():
    r = make()
    r.handle_fault(100, tid=0, pfn=1)
    r.handle_fault(101, tid=1, pfn=2)  # same 512-entry leaf region
    # Each page stays private to its own toucher...
    assert r.sharing_tids(100) == {0}
    assert r.sharing_tids(101) == {1}
    # ...even though both threads link the same physical leaf table.
    assert r._leaf_tids[100 >> LEVEL_BITS] == {0, 1}


def test_tid_out_of_field_rejected():
    r = ReplicatedPageTables()
    with pytest.raises(ValueError):
        r.register_thread(0x7F)  # reserved sentinel
    with pytest.raises(ValueError):
        r.register_thread(-1)
    r.register_thread(0)
    with pytest.raises(ValueError):
        r.register_thread(0)  # duplicate


def test_unregistered_thread_fault_rejected():
    r = make(tids=(0,))
    with pytest.raises(KeyError):
        r.handle_fault(5, tid=9, pfn=1)
    r.handle_fault(5, tid=0, pfn=1)
    with pytest.raises(KeyError):
        r.note_access(5, tid=9)


def test_note_access_unmapped_rejected():
    with pytest.raises(KeyError):
        make().note_access(1, tid=0)


def test_double_fault_rejected():
    r = make()
    r.handle_fault(5, tid=0, pfn=1)
    with pytest.raises(ValueError):
        r.handle_fault(5, tid=1, pfn=2)
    with pytest.raises(ValueError):
        r.handle_faults(np.array([4, 5]), np.array([0, 0]), np.array([3, 4]))
    # the bulk fault wrote nothing: vpn 4 stays unmapped
    assert r.lookup(4) is None
    assert P.pte_pfn(r.lookup(5)) == 1


def test_update_and_unmap_of_unmapped_vpn_rejected():
    r = make()
    with pytest.raises(KeyError):
        r.update(8, P.pte_make(pfn=1, tid=0))
    with pytest.raises(KeyError):
        r.unmap(8)
    r.handle_fault(8, tid=0, pfn=1)
    r.unmap(8)
    with pytest.raises(KeyError):
        r.unmap(8)


@pytest.mark.parametrize("vpn", [-1, VPN_LIMIT])
def test_vpn_outside_index_space_rejected(vpn):
    r = make()
    with pytest.raises(ValueError):
        r.handle_fault(vpn, tid=0, pfn=1)
    with pytest.raises(ValueError):
        r.handle_faults(np.array([vpn]), np.array([0]), np.array([1]))
    assert r.flat.mapped == 0
    r.handle_fault(VPN_LIMIT - 1, tid=0, pfn=1)  # the last vpn maps
    assert P.pte_pfn(r.lookup(VPN_LIMIT - 1)) == 1


def test_iter_ptes_ascending():
    r = make()
    for vpn in (5000, 3, 700_000):
        r.handle_fault(vpn, tid=0, pfn=vpn % 100)
    assert list(r.iter_ptes()) == [(vpn, r.lookup(vpn)) for vpn in (3, 5000, 700_000)]


#: vpns of one example lie within this window (anywhere in the 36-bit
#: space): the table's arrays span the mapped vpns densely
WINDOW = 1 << 16


@settings(max_examples=30, deadline=None)
@given(
    base=st.integers(0, VPN_LIMIT - WINDOW),
    offsets=st.lists(st.integers(0, WINDOW - 1), min_size=1, max_size=80, unique=True),
)
def test_map_lookup_property(base, offsets):
    r = make()
    vpns = [base + off for off in offsets]
    for i, vpn in enumerate(vpns):
        r.handle_fault(vpn, tid=i % 3, pfn=i)
    assert r.flat.mapped == len(vpns)
    for i, vpn in enumerate(vpns):
        assert P.pte_pfn(r.lookup(vpn)) == i
    assert [v for v, _ in r.iter_ptes()] == sorted(vpns)
    for vpn in vpns:
        r.unmap(vpn)
    assert r.flat.mapped == 0
    assert list(r.iter_ptes()) == []


def test_rss_counts_present_ptes():
    proc = make_process()
    space = AddressSpace(proc, FrameAllocator(fast_frames=8, slow_frames=32))
    vma = proc.mmap(10)
    assert proc.rss_pages == 0
    space.populate(vma, 0)
    assert proc.rss_pages == 10
    proc.repl.unmap(vma.start_vpn + 3)
    assert proc.rss_pages == 9 == len(list(proc.repl.iter_ptes()))
    assert space.populate(vma, 1) == 1  # refills only the hole
    assert proc.rss_pages == 10
