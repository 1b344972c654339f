"""Per-CPU pagevecs and the drains that flush them."""

import pytest

from repro.mm.lru import PAGEVEC_SIZE, LruSubsystem, PerCpuPagevec


class TestPagevec:
    def test_fills_then_signals_drain(self):
        vec = PerCpuPagevec(cpu_id=0, capacity=3)
        assert vec.add(1) is False
        assert vec.add(2) is False
        assert vec.add(3) is True  # full
        assert vec.drain() == [1, 2, 3]
        assert vec.drain() == []

    def test_default_capacity_matches_linux(self):
        assert PerCpuPagevec(cpu_id=0).capacity == PAGEVEC_SIZE == 15


class TestLruSubsystem:
    def test_pages_stuck_in_pagevec_until_drain(self):
        sub = LruSubsystem(n_cpus=2)
        sub.add_page(pfn=1, cpu_id=0)
        assert list(sub.pagevecs[0].pending) == [1]
        assert sub.drain([0]) == 1
        assert not sub.pagevecs[0].pending

    def test_full_pagevec_autodrains(self):
        sub = LruSubsystem(n_cpus=1)
        for pfn in range(PAGEVEC_SIZE - 1):
            sub.add_page(pfn, cpu_id=0)
        assert len(sub.pagevecs[0].pending) == PAGEVEC_SIZE - 1
        sub.add_page(PAGEVEC_SIZE - 1, cpu_id=0)
        assert not sub.pagevecs[0].pending  # vec filled and flushed itself
        assert sub.drain_all_calls == sub.scoped_drain_calls == 0

    def test_global_drain_covers_all_cpus(self):
        sub = LruSubsystem(n_cpus=4)
        for cpu in range(4):
            sub.add_page(100 + cpu, cpu_id=cpu)
        flushed = sub.drain(None)
        assert flushed == 4
        assert sub.drain_all_calls == 1
        assert not any(vec.pending for vec in sub.pagevecs)

    def test_scoped_drain_leaves_other_cpus_buffered(self):
        sub = LruSubsystem(n_cpus=4)
        sub.add_page(1, cpu_id=0)
        sub.add_page(2, cpu_id=3)
        assert sub.drain([0]) == 1
        assert sub.scoped_drain_calls == 1
        assert sub.drain_all_calls == 0
        assert not sub.pagevecs[0].pending
        assert list(sub.pagevecs[3].pending) == [2]

    def test_zero_cpus_rejected(self):
        with pytest.raises(ValueError):
            LruSubsystem(n_cpus=0)


class TestForgetPages:
    """Teardown support: a departing pid's frames must leave every pagevec."""

    def test_removes_from_pagevecs_and_global_lists(self):
        sub = LruSubsystem(n_cpus=2)
        # pfns 1..15 fill cpu 0's pagevec, which flushes itself; 20 and
        # 21 stay buffered in cpu 1's pagevec.
        for pfn in range(1, 16):
            sub.add_page(pfn, cpu_id=0)
        sub.add_page(20, cpu_id=1)
        sub.add_page(21, cpu_id=1)
        # Flushed pages hold no pagevec entry, so only 20 is removed.
        assert sub.forget_pages([1, 2, 20]) == 1
        assert list(sub.pagevecs[1].pending) == [21]
        # A later drain must not resurrect the forgotten page.
        assert sub.drain() == 1

    def test_empty_and_unknown_pfns_are_noops(self):
        sub = LruSubsystem(n_cpus=1)
        sub.add_page(5, cpu_id=0)
        assert sub.forget_pages([]) == 0
        assert sub.forget_pages([99]) == 0
        assert 5 in sub.pagevecs[0].pending
