"""Transparent huge pages: registration, skew detection, splitting."""

import numpy as np
import pytest

from repro.mm.thp import HugePageManager
from repro.sim.units import BASE_PAGES_PER_HUGE_PAGE as HP


def test_huge_base_alignment():
    assert HugePageManager.huge_base(0) == 0
    assert HugePageManager.huge_base(511) == 0
    assert HugePageManager.huge_base(512) == 512
    assert HugePageManager.huge_base(1000) == 512


def test_register_covers_only_full_blocks():
    m = HugePageManager()
    # Region [100, 100+1024): fully covers exactly one 512-block (512..1024).
    created = m.register_region(start_vpn=100, n_pages=1024)
    assert created == 1
    assert list(m.regions) == [512]


def test_register_aligned_region():
    m = HugePageManager()
    assert m.register_region(0, 3 * HP) == 3
    assert m.register_region(0, 3 * HP) == 0  # idempotent


def test_disabled_manager_registers_nothing():
    m = HugePageManager(enabled=False)
    assert m.register_region(0, 4 * HP) == 0
    assert not m.regions


def test_record_accesses_builds_histogram():
    m = HugePageManager()
    m.register_region(0, HP)
    vpns = np.array([0, 0, 1, 5, 5, 5], dtype=np.int64)
    m.record_accesses(vpns)
    region = m.regions[0]
    assert region.accesses == 6
    assert region.subpage_hist[0] == 2
    assert region.subpage_hist[5] == 3


def test_skewed_region_is_split_candidate():
    m = HugePageManager()
    m.register_region(0, HP)
    # All traffic on 4 subpages: massive skew.
    vpns = np.repeat(np.array([1, 2, 3, 4], dtype=np.int64), 50)
    m.record_accesses(vpns)
    assert m.split_candidates(min_accesses=64) == [0]


def test_uniform_region_not_split():
    m = HugePageManager()
    m.register_region(0, HP)
    m.record_accesses(np.arange(HP, dtype=np.int64))  # one access each
    m.record_accesses(np.arange(HP, dtype=np.int64))
    assert m.split_candidates(min_accesses=64) == []


def test_cold_region_not_split():
    m = HugePageManager()
    m.register_region(0, HP)
    m.record_accesses(np.array([1, 1, 1], dtype=np.int64))
    assert m.split_candidates(min_accesses=64) == []


def test_split_returns_hot_first():
    m = HugePageManager()
    m.register_region(0, HP)
    vpns = np.repeat(np.array([7, 9], dtype=np.int64), [100, 60])
    m.record_accesses(vpns)
    order = m.split(0)
    assert order[0] == 7 and order[1] == 9
    assert len(order) == HP
    assert 0 not in m.regions
    assert m.splits == 1


def test_split_unknown_rejected():
    with pytest.raises(KeyError):
        HugePageManager().split(0)


def test_tlb_reach():
    m = HugePageManager()
    m.register_region(0, 2 * HP)
    # 2 huge entries cover 1024 base pages; remaining entries 1 page each.
    assert m.tlb_reach_pages(tlb_entries=10) == 2 * HP + 8
    assert m.tlb_reach_pages(tlb_entries=1) == HP
