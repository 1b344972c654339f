"""NUMA-hinting-fault profiler."""

import numpy as np
import pytest

from repro.profiling.base import AccessBatch, EpochPlan, Profiler
from repro.profiling.hintfault import (
    HINT_FAULT_COST_CYCLES,
    POISON_COST_CYCLES,
    HintFaultProfiler,
)


def batch(vpns, writes=None, pid=1):
    v = np.asarray(vpns, dtype=np.int64)
    w = np.zeros(v.size, dtype=bool) if writes is None else np.asarray(writes, dtype=bool)
    return AccessBatch(pid=pid, tid=0, vpns=v, is_write=w)


def prof_with_pages(n=16, window=0.25):
    p = HintFaultProfiler(window_fraction=window)
    p.register_pages(1, np.arange(n, dtype=np.int64))
    return p


def test_only_poisoned_pages_fault():
    p = prof_with_pages(n=16, window=0.25)  # window = pages [0..3]
    p.observe(batch(list(range(16))))
    heat_pages = set(p.hotness(1))
    assert heat_pages == {0, 1, 2, 3}


def test_fault_costs_charged_to_application():
    p = prof_with_pages(n=8, window=0.5)
    p.observe(batch([0, 1]))
    assert p.stats.app_overhead_cycles == pytest.approx(2 * HINT_FAULT_COST_CYCLES)


def test_page_faults_once_per_rotation():
    p = prof_with_pages(n=8, window=0.5)
    p.observe(batch([0] * 100))  # many touches, one fault
    assert p.stats.samples_taken == 1
    assert p.hotness(1)[0] == pytest.approx(1.0)


def test_rotation_covers_all_pages():
    p = prof_with_pages(n=8, window=0.25)
    seen = set()
    for _ in range(4):
        p.observe(batch(list(range(8))))
        base, mask = p._window[1]
        seen |= set((np.flatnonzero(mask) + base).tolist())
        p.end_epoch()
    assert len(set(p.hotness(1)) | seen) >= 8 - 2  # full coverage modulo rotation edge


def test_write_fault_recorded():
    p = prof_with_pages(n=4, window=1.0)
    p.observe(batch([0, 1], writes=[True, False]))
    assert p.write_fraction(1, 0) == pytest.approx(1.0)
    assert p.write_fraction(1, 1) == 0.0


def test_decay_applied_each_epoch():
    p = prof_with_pages(n=4, window=1.0)
    p.observe(batch([0]))
    before = p.hotness(1)[0]
    p.end_epoch()
    assert p.hotness(1)[0] == pytest.approx(before * 0.5)


def test_unregistered_pid_ignored():
    p = HintFaultProfiler()
    p.observe(batch([1, 2, 3], pid=9))
    assert p.hotness(9) == {}


def test_forget_drops_rotation_state():
    p = prof_with_pages()
    p.observe(batch([0]))
    p.forget(1)
    assert p.hotness(1) == {}
    p.end_epoch()  # must not crash on forgotten pid


def test_window_fraction_validation():
    with pytest.raises(ValueError):
        HintFaultProfiler(window_fraction=0.0)
    with pytest.raises(ValueError):
        HintFaultProfiler(window_fraction=1.5)


# -- reference model ------------------------------------------------------------


class _SetWindowModel(Profiler):
    """The hint-fault window as a Python set, one access at a time.

    A page poisoned when a batch starts faults once in that batch, is
    then unpoisoned until the next rotation, and carries a write flag if
    any access to it in the batch wrote.  Faults enter heat ascending.
    """

    def __init__(self, window_fraction: float) -> None:
        super().__init__(decay=0.5)
        self.window_fraction = window_fraction
        self.pages: dict[int, list[int]] = {}
        self.poisoned: dict[int, set[int]] = {}
        self.cursor: dict[int, int] = {}

    def register_pages(self, pid, vpns):
        self.pages[pid] = sorted(int(v) for v in vpns)
        self.cursor.setdefault(pid, 0)
        if pid not in self.poisoned:
            self._rotate(pid)

    def _rotate(self, pid):
        pages = self.pages[pid]
        if not pages:
            self.poisoned[pid] = set()
            return
        window = max(int(len(pages) * self.window_fraction), 1)
        start = self.cursor[pid] % len(pages)
        self.poisoned[pid] = {pages[(start + i) % len(pages)] for i in range(window)}
        self.cursor[pid] = (start + window) % len(pages)
        self.stats.overhead_cycles += window * POISON_COST_CYCLES

    def observe(self, batch):
        self.stats.accesses_seen += batch.n
        poisoned = self.poisoned.get(batch.pid, set())
        written: dict[int, bool] = {}
        for vpn, w in zip(batch.vpns.tolist(), batch.is_write.tolist()):
            if vpn in poisoned or vpn in written:
                poisoned.discard(vpn)
                written[vpn] = written.get(vpn, False) or w
        if not written:
            return
        uniq = np.array(sorted(written), dtype=np.int64)
        self.stats.samples_taken += uniq.size
        self.stats.app_overhead_cycles += uniq.size * HINT_FAULT_COST_CYCLES
        flags = np.array([float(written[v]) for v in uniq.tolist()])
        self._accumulate(batch.pid, uniq, np.ones(uniq.size), write_weights=flags)

    def end_epoch(self):
        for pid in list(self.pages):
            self._rotate(pid)
        super().end_epoch()

    def forget(self, pid):
        super().forget(pid)
        for book in (self.pages, self.poisoned, self.cursor):
            book.pop(pid, None)


def _random_plan(rng, pid, lo, hi, n_threads=3):
    """A multi-segment plan over [lo, hi), empty segments included."""
    sizes = rng.integers(0, 60, n_threads)
    sizes[rng.integers(n_threads)] = 0
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    n = int(offsets[-1])
    return EpochPlan(
        pid=pid,
        vpns=rng.integers(lo, hi, n).astype(np.int64),
        is_write=rng.random(n) < 0.3,
        offsets=offsets,
        tids=np.arange(n_threads, dtype=np.int64),
    )


def _assert_same(model, prof, pids, probe):
    for pid in pids:
        assert list(prof.hotness(pid).items()) == list(model.hotness(pid).items())
        np.testing.assert_array_equal(
            prof.write_fraction_many(pid, probe), model.write_fraction_many(pid, probe)
        )
    for field in ("samples_taken", "accesses_seen", "app_overhead_cycles", "overhead_cycles"):
        assert getattr(prof.stats, field) == getattr(model.stats, field), field


@pytest.mark.parametrize("seed", range(6))
def test_dense_window_matches_set_model(seed):
    rng = np.random.default_rng(seed)
    window = float(rng.choice([0.0625, 0.25, 0.5, 1.0]))
    model, prof = _SetWindowModel(window), HintFaultProfiler(window_fraction=window)
    # a sparse page set, so the dense mask has holes; pid 2 starts
    # empty; pid 3 has one page, so its window is that page
    pages1 = np.sort(rng.choice(np.arange(100, 300), 80, replace=False))
    for p in (model, prof):
        p.register_pages(1, pages1)
        p.register_pages(2, np.empty(0, dtype=np.int64))
        p.register_pages(3, np.array([500], dtype=np.int64))
    probe = np.arange(40, 520, dtype=np.int64)
    for epoch in range(10):
        if epoch == 3:
            # re-registration over a shifted range: the current window
            # (partly outside the new range) stays poisoned until rotation
            pages1b = np.arange(200, 400, 3, dtype=np.int64)
            for p in (model, prof):
                p.register_pages(1, pages1b)
        if epoch == 6:
            for p in (model, prof):
                p.forget(2)
                p.register_pages(2, np.arange(50, 90, dtype=np.int64))
        plans = [
            _random_plan(rng, 1, 80, 420),  # vpns beyond both ends of the range
            _random_plan(rng, 2, 40, 100),
            _random_plan(rng, 3, 498, 503),
            _random_plan(rng, 9, 0, 50),  # never registered
        ]
        for plan in plans:
            model.observe_plan(plan)
            prof.observe_plan(plan)
        _assert_same(model, prof, (1, 2, 3, 9), probe)
        model.end_epoch()
        prof.end_epoch()
        _assert_same(model, prof, (1, 2, 3, 9), probe)
    assert prof.stats.samples_taken > 0
