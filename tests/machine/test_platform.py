"""Machine assembly."""

from repro.machine.platform import FAST_TIER, SLOW_TIER, build_machine
from repro.sim.config import paper_machine_config
from repro.sim.units import GiB, PAGE_SIZE


def test_build_machine_paper_defaults():
    m = build_machine()
    assert m.cpu.n_cores == 32
    assert m.fast.total_frames == 32 * GiB // PAGE_SIZE
    assert m.slow.total_frames == 256 * GiB // PAGE_SIZE
    assert m.fast.tier_id == FAST_TIER
    assert m.slow.tier_id == SLOW_TIER


def test_custom_page_size_scales_frames():
    m = build_machine(paper_machine_config(), page_size=10 * 1000 * 1000)
    assert m.fast.total_frames == (32 * GiB) // (10 * 1000 * 1000)


def test_tier_lookup():
    m = build_machine()
    assert m.tier(0) is m.fast
    assert m.tier(1) is m.slow


def test_fast_tier_is_faster():
    m = build_machine()
    assert m.fast.load_latency_cycles < m.slow.load_latency_cycles


def test_cross_tier_copy_bounded_by_link():
    m = build_machine()
    c = m.cross_tier_copy_cycles(4096)
    assert c > 0
    assert m.link.bytes_transferred == 4096
