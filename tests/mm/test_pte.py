"""PTE bitfield codec, including round-trip property tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.mm import pte as P


def test_basic_encode_decode():
    v = P.pte_make(pfn=1234, tid=5, writable=True, dirty=True)
    d = P.pte_decode(v)
    assert d.present and d.writable and d.dirty
    assert not d.accessed and not d.hint_poisoned and not d.shadowed
    assert d.pfn == 1234
    assert d.tid == 5
    assert not d.shared


def test_shared_sentinel():
    v = P.pte_make(pfn=1, tid=P.PTE_SHARED_TID)
    assert P.pte_decode(v).shared
    assert P.pte_is_shared(v)
    assert P.PTE_SHARED_TID == 0x7F
    assert P.PTE_MAX_TID == 0x7E


def test_field_bounds():
    with pytest.raises(ValueError):
        P.pte_make(pfn=1 << 40, tid=0)
    with pytest.raises(ValueError):
        P.pte_make(pfn=0, tid=0x80)
    with pytest.raises(ValueError):
        P.pte_make(pfn=-1, tid=0)


def test_with_pfn_preserves_flags_and_tid():
    v = P.pte_make(pfn=10, tid=3, dirty=True, shadowed=True)
    v2 = P.pte_with_pfn(v, 999)
    assert P.pte_pfn(v2) == 999
    assert P.pte_tid(v2) == 3
    assert P.pte_is_dirty(v2)
    assert P.pte_decode(v2).shadowed


def test_with_tid_preserves_pfn():
    v = P.pte_make(pfn=10, tid=3)
    v2 = P.pte_with_tid(v, P.PTE_SHARED_TID)
    assert P.pte_pfn(v2) == 10
    assert P.pte_is_shared(v2)


def test_flag_set_clear():
    v = P.pte_make(pfn=1, tid=0)
    v = P.pte_set_flag(v, P.PTE_DIRTY)
    assert P.pte_is_dirty(v)
    v = P.pte_clear_flag(v, P.PTE_DIRTY)
    assert not P.pte_is_dirty(v)


def test_accessed_flag():
    v = P.pte_make(pfn=1, tid=0, accessed=True)
    assert P.pte_decode(v).accessed
    assert not P.pte_decode(P.pte_make(pfn=1, tid=0)).accessed


@given(
    pfn=st.integers(min_value=0, max_value=(1 << 40) - 1),
    tid=st.integers(min_value=0, max_value=0x7F),
    present=st.booleans(),
    writable=st.booleans(),
    accessed=st.booleans(),
    dirty=st.booleans(),
    hint=st.booleans(),
    shadow=st.booleans(),
)
def test_roundtrip_property(pfn, tid, present, writable, accessed, dirty, hint, shadow):
    v = P.pte_make(
        pfn=pfn, tid=tid, present=present, writable=writable,
        accessed=accessed, dirty=dirty, hint_poisoned=hint, shadowed=shadow,
    )
    d = P.pte_decode(v)
    assert d == (present, writable, accessed, dirty, hint, shadow, pfn, tid)


@given(
    pfn1=st.integers(min_value=0, max_value=(1 << 40) - 1),
    pfn2=st.integers(min_value=0, max_value=(1 << 40) - 1),
    tid=st.integers(min_value=0, max_value=0x7F),
)
def test_repoint_never_disturbs_other_fields(pfn1, pfn2, tid):
    v = P.pte_make(pfn=pfn1, tid=tid, dirty=True, accessed=True)
    v2 = P.pte_with_pfn(v, pfn2)
    assert P.pte_decode(v2)._replace(pfn=pfn1) == P.pte_decode(v)
