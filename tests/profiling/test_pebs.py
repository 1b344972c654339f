"""PEBS sampling profiler."""

import numpy as np
import pytest

from repro.profiling.base import AccessBatch
from repro.profiling.pebs import PebsProfiler


def batch(vpns, writes=None, pid=1, tid=0):
    v = np.asarray(vpns, dtype=np.int64)
    w = np.zeros(v.size, dtype=bool) if writes is None else np.asarray(writes, dtype=bool)
    return AccessBatch(pid=pid, tid=tid, vpns=v, is_write=w)


def test_heat_proportional_to_frequency():
    prof = PebsProfiler(period=8, rng=np.random.default_rng(0))
    # Page 1 accessed 4x as often as page 2.
    stream = np.array(([1] * 4 + [2]) * 800, dtype=np.int64)
    prof.observe(batch(stream))
    heat = prof.hotness(1)
    assert heat[1] / heat[2] == pytest.approx(4.0, rel=0.3)


def test_expected_heat_unbiased():
    prof = PebsProfiler(period=16, rng=np.random.default_rng(1))
    prof.observe(batch(np.zeros(16_000, dtype=np.int64)))
    # Weight `period` per sample keeps expected heat ≈ true count.
    assert prof.hotness(1)[0] == pytest.approx(16_000, rel=0.1)


def test_false_negatives_for_rare_pages():
    """A page touched fewer times than the period is often missed —
    Telescope's false-negative problem at scale."""
    prof = PebsProfiler(period=512, rng=np.random.default_rng(2))
    # 256 pages touched once each: at most 1 sample can land.
    prof.observe(batch(np.arange(256, dtype=np.int64)))
    assert len(prof.hotness(1)) <= 1


def test_decay_halves_heat():
    prof = PebsProfiler(period=1, decay=0.5)
    prof.observe(batch([7] * 10))
    before = prof.hotness(1)[7]
    prof.end_epoch()
    assert prof.hotness(1)[7] == pytest.approx(before / 2)


def test_tiny_heat_evicted():
    prof = PebsProfiler(period=1, decay=0.5)
    prof.observe(batch([7]))
    for _ in range(40):
        prof.end_epoch()
    assert 7 not in prof.hotness(1)


def test_write_heat_tracked():
    prof = PebsProfiler(period=1)
    prof.observe(batch([1, 1, 1, 1], writes=[True, True, False, False]))
    assert prof.write_fraction(1, 1) == pytest.approx(0.5)


def test_overhead_accounted_per_sample():
    prof = PebsProfiler(period=10, rng=np.random.default_rng(3))
    prof.observe(batch(np.zeros(100, dtype=np.int64)))
    assert prof.stats.samples_taken == 10
    assert prof.stats.overhead_cycles > 0
    assert prof.stats.app_overhead_cycles == 0  # PEBS costs the daemon, not the app


def test_pid_isolation_and_forget():
    prof = PebsProfiler(period=1)
    prof.observe(batch([1], pid=1))
    prof.observe(batch([2], pid=2))
    assert set(prof.hotness(1)) == {1}
    assert set(prof.hotness(2)) == {2}
    prof.forget(1)
    assert prof.hotness(1) == {}
    assert set(prof.hotness(2)) == {2}


def test_empty_batch_noop():
    prof = PebsProfiler(period=4)
    prof.observe(batch([]))
    assert prof.hotness(1) == {}


def test_invalid_period():
    with pytest.raises(ValueError):
        PebsProfiler(period=0)
