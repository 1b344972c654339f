"""FlexMem-style hybrid profiler (Vulcan's default)."""

import numpy as np
import pytest

from repro.profiling.base import AccessBatch
from repro.profiling.hybrid import HybridProfiler


def batch(vpns, writes=None, pid=1):
    v = np.asarray(vpns, dtype=np.int64)
    w = np.zeros(v.size, dtype=bool) if writes is None else np.asarray(writes, dtype=bool)
    return AccessBatch(pid=pid, tid=0, vpns=v, is_write=w)


def make(period=16, window=1.0):
    p = HybridProfiler(period=period, window_fraction=window, rng=np.random.default_rng(0))
    p.register_pages(1, np.arange(64, dtype=np.int64))
    return p


def test_fusion_combines_both_mechanisms():
    p = make()
    p.observe(batch([0] * 64))  # hot: sampled by PEBS and faults once
    p.observe(batch([50]))  # cold: invisible to sampling, caught by fault
    p.end_epoch()
    heat = p.hotness(1)
    assert 50 in heat  # the fault rescued the sampling miss
    assert heat[0] > heat[50]  # but frequency still dominates


def test_fault_boost_bounded():
    """A page seen only through faults must not outrank a genuinely hot
    page — the streaming-scan pollution guard."""
    p = make(period=16)
    for _ in range(4):
        p.observe(batch([0] * 400))  # truly hot
        p.observe(batch([30]))  # scan-like: one touch
        p.end_epoch()
    heat = p.hotness(1)
    assert heat[0] > 4 * heat[30]


def test_default_boost_is_eighth_period():
    assert HybridProfiler(period=64).fault_boost == 8.0


def test_write_fraction_fused():
    p = make(period=1)
    p.observe(batch([5] * 8, writes=[True] * 4 + [False] * 4))
    p.end_epoch()
    assert p.write_fraction(1, 5) == pytest.approx(0.5, abs=0.2)


def test_cost_accounting_aggregates_both():
    p = make(period=4)
    p.observe(batch(list(range(32)) * 8))
    p.end_epoch()
    assert p.stats.app_overhead_cycles == p.faults.stats.app_overhead_cycles
    assert p.stats.app_overhead_cycles > 0  # faults hit the app


def test_forget_clears_all_children():
    p = make()
    p.observe(batch([1] * 64))
    p.end_epoch()
    p.forget(1)
    assert p.hotness(1) == {}
    assert p.pebs.hotness(1) == {}
    assert p.faults.hotness(1) == {}

