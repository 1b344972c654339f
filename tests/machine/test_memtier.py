"""Memory tier latency/bandwidth model."""

import pytest

from repro.machine.memtier import MemoryTier
from repro.sim.config import TierConfig
from repro.sim.units import GiB, PAGE_SIZE


def make_tier(capacity=GiB, latency=100.0, bw=10.0, tier_id=0) -> MemoryTier:
    return MemoryTier(TierConfig(name="t", capacity_bytes=capacity, load_latency_ns=latency, bandwidth_gbps=bw), tier_id=tier_id)


def test_frame_count():
    t = make_tier(capacity=GiB)
    assert t.total_frames == GiB // PAGE_SIZE


def test_unloaded_latency():
    t = make_tier(latency=100.0)
    assert t.access_latency_cycles(0.0) == pytest.approx(300.0)


def test_loaded_latency_monotone():
    t = make_tier()
    lats = [t.access_latency_cycles(u) for u in (0.0, 0.3, 0.6, 0.9)]
    assert lats == sorted(lats)
    assert lats[-1] > lats[0]


def test_loaded_latency_capped_at_4x():
    t = make_tier(latency=100.0)
    assert t.access_latency_cycles(0.999) <= 4.0 * t.load_latency_cycles


def test_sub_page_tier_rejected():
    with pytest.raises(ValueError):
        make_tier(capacity=100)
