"""Nomad-style page shadowing."""

import pytest

from repro.mm.shadow import ShadowTracker


def test_retain_and_lookup():
    s = ShadowTracker()
    s.retain(fast_pfn=1, shadow_pfn=100)
    assert s.shadow_of(1) == 100
    assert len(s) == 1
    assert s.stats.retained == 1


def test_double_retain_rejected():
    s = ShadowTracker()
    s.retain(1, 100)
    with pytest.raises(ValueError):
        s.retain(1, 101)


def test_write_invalidates():
    s = ShadowTracker()
    s.retain(1, 100)
    stale = s.on_write(1)
    assert stale == 100
    assert s.shadow_of(1) is None
    assert s.stats.invalidated_by_write == 1
    assert s.on_write(1) is None  # idempotent


def test_clean_page_remap_demotable():
    s = ShadowTracker()
    s.retain(1, 100)
    assert s.can_remap_demote(1, dirty=False)
    assert s.consume(1) == 100
    assert s.stats.remap_demotions == 1
    assert s.shadow_of(1) is None


def test_dirty_page_not_remap_demotable_and_drops_shadow():
    s = ShadowTracker()
    s.retain(1, 100)
    assert not s.can_remap_demote(1, dirty=True)
    # The divergent shadow is dropped.
    assert s.shadow_of(1) is None
    assert s.stats.invalidated_by_write == 1


def test_unshadowed_page_not_remap_demotable():
    assert not ShadowTracker().can_remap_demote(9, dirty=False)


def test_disabled_tracker():
    s = ShadowTracker(enabled=False)
    assert not s.can_remap_demote(1, dirty=False)
    with pytest.raises(RuntimeError):
        s.retain(1, 100)


def test_poison_pops_and_counts():
    s = ShadowTracker()
    s.retain(1, 100)
    assert s.poison(1) == 100
    assert s.stats.poisoned == 1
    assert s.shadow_of(1) is None


def test_poison_of_unshadowed_page_is_none():
    s = ShadowTracker()
    assert s.poison(1) is None
    assert s.stats.poisoned == 0
