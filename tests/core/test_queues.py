"""Four priority queues + MLFQ escalation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.classify import PageClass
from repro.core.queues import PromotionQueues


def test_pop_serves_priority_order():
    q = PromotionQueues(1)
    q.enqueue(10, heat=5.0, page_class=PageClass.SHARED_WRITE)
    q.enqueue(11, heat=5.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(12, heat=5.0, page_class=PageClass.SHARED_READ)
    q.enqueue(13, heat=5.0, page_class=PageClass.PRIVATE_WRITE)
    vpns, heats, classes = q.pop(4)
    assert vpns.tolist() == [11, 12, 13, 10]
    assert classes.tolist() == [PageClass.PRIVATE_READ, PageClass.SHARED_READ,
                                PageClass.PRIVATE_WRITE, PageClass.SHARED_WRITE]
    assert heats.tolist() == [5.0] * 4


def test_hottest_first_within_class():
    q = PromotionQueues(1)
    q.enqueue(10, heat=1.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(11, heat=9.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(12, heat=5.0, page_class=PageClass.PRIVATE_READ)
    vpns, heats, _ = q.pop(3)
    assert vpns.tolist() == [11, 12, 10]
    assert heats.tolist() == [9.0, 5.0, 1.0]


def test_budget_respected():
    q = PromotionQueues(1)
    for vpn in range(10):
        q.enqueue(vpn, heat=1.0, page_class=PageClass.PRIVATE_READ)
    vpns, heats, classes = q.pop(3)
    assert vpns.size == heats.size == classes.size == 3
    assert len(q) == 7


def test_reenqueue_supersedes_old_entry():
    q = PromotionQueues(1)
    q.enqueue(10, heat=1.0, page_class=PageClass.PRIVATE_READ)
    q.enqueue(10, heat=8.0, page_class=PageClass.PRIVATE_READ)
    vpns, heats, _ = q.pop(10)
    assert vpns.tolist() == [10]
    assert heats.tolist() == [8.0]


def test_mlfq_escalation_on_hot_page_in_low_queue():
    q = PromotionQueues(1, boost_factor=2.0)
    # Populate the class above with moderate heat.
    for vpn in range(5):
        q.enqueue(vpn, heat=4.0, page_class=PageClass.PRIVATE_WRITE)
    # A shared-write page far hotter than the class above escalates.
    cls = q.enqueue(99, heat=100.0, page_class=PageClass.SHARED_WRITE)
    assert cls > PageClass.SHARED_WRITE
    assert q.escalations >= 1


def test_mlfq_no_escalation_without_reference_population(  # noqa: D103
):
    q = PromotionQueues(1)
    cls = q.enqueue(99, heat=100.0, page_class=PageClass.SHARED_WRITE)
    assert cls is PageClass.SHARED_WRITE  # nothing above to compare against


def test_mlfq_cold_page_stays_put():
    q = PromotionQueues(1, boost_factor=2.0)
    for vpn in range(5):
        q.enqueue(vpn, heat=4.0, page_class=PageClass.PRIVATE_WRITE)
    cls = q.enqueue(99, heat=1.0, page_class=PageClass.SHARED_WRITE)
    assert cls is PageClass.SHARED_WRITE


def test_depth_accounting():
    q = PromotionQueues(1)
    q.enqueue(10, heat=1.0, page_class=PageClass.SHARED_READ)
    q.enqueue(11, heat=1.0, page_class=PageClass.SHARED_READ)
    assert q.depth(PageClass.SHARED_READ) == 2
    q.pop(1)
    assert q.depth(PageClass.SHARED_READ) == 1


def test_validation():
    with pytest.raises(ValueError):
        PromotionQueues(1, boost_factor=1.0)
    q = PromotionQueues(1)
    with pytest.raises(ValueError):
        q.enqueue(1, heat=-1.0, page_class=PageClass.SHARED_READ)
    with pytest.raises(ValueError):
        q.pop(-1)
    vpns, heats, classes = q.pop(5)  # empty queues serve empty arrays
    assert (vpns.dtype, heats.dtype, classes.dtype) == (np.int64, np.float64, np.int8)
    assert vpns.size == heats.size == classes.size == 0
    # A negative heat anywhere in a batch rejects the whole batch.
    with pytest.raises(ValueError):
        q.enqueue_many(np.array([1, 2]), np.array([1.0, -1.0]), np.array([3, 3]))
    assert len(q) == 0 and q.depth(PageClass.SHARED_READ) == 0


def test_mlfq_climbs_several_levels_in_one_enqueue():
    q = PromotionQueues(1, boost_factor=2.0)
    for vpn, cls in enumerate((PageClass.PRIVATE_WRITE, PageClass.SHARED_READ, PageClass.PRIVATE_READ)):
        q.enqueue(vpn, heat=1.0, page_class=cls)
    assert q.enqueue(99, heat=100.0, page_class=PageClass.SHARED_WRITE) is PageClass.PRIVATE_READ
    assert q.escalations == 3


def test_mlfq_climbs_at_exactly_boost_times_mean():
    q = PromotionQueues(1, boost_factor=2.0)
    q.enqueue(1, heat=1.0, page_class=PageClass.PRIVATE_WRITE)
    q.enqueue(2, heat=3.0, page_class=PageClass.PRIVATE_WRITE)
    assert q.enqueue(99, heat=4.0, page_class=PageClass.SHARED_WRITE) is PageClass.PRIVATE_WRITE


@settings(max_examples=30, deadline=None)
@given(
    entries=st.lists(
        st.tuples(st.integers(0, 50), st.floats(0.0, 100.0), st.sampled_from(list(PageClass))),
        min_size=1,
        max_size=40,
    )
)
def test_pop_order_property(entries):
    """Served pages are sorted by (effective class desc, heat desc)."""
    q = PromotionQueues(1)
    for vpn, heat, cls in entries:
        q.enqueue(vpn, heat=heat, page_class=cls)
    vpns, heats, classes = q.pop(len(entries))
    keys = list(zip((-classes).tolist(), (-heats).tolist()))
    assert keys == sorted(keys)
    # Each live page served at most once.
    assert len(set(vpns.tolist())) == vpns.size


class _ReferenceQueues:
    """The heap-era semantics, kept small: a live dict, the scalar MLFQ
    walk per candidate, and a full sort at pop."""

    def __init__(self, boost_factor):
        self.bf = boost_factor
        self.live = {}  # vpn -> (effective class, heat)
        self.sums = {c: 0.0 for c in PageClass}
        self.counts = {c: 0 for c in PageClass}
        self.escalations = 0

    def enqueue(self, vpn, heat, base):
        old = self.live.get(vpn)
        if old is not None:
            self.sums[old[0]] -= old[1]
            self.counts[old[0]] -= 1
        cls = base
        while cls < PageClass.PRIVATE_READ:
            above = PageClass(cls + 1)
            n = self.counts[above]
            if n:
                ref = self.sums[above] / n
                if ref > 0.0 and heat >= self.bf * ref:
                    cls = above
                    self.escalations += 1
                    continue
            break
        self.live[vpn] = (cls, heat)
        self.sums[cls] += heat
        self.counts[cls] += 1
        return cls

    def pop(self, budget):
        ranked = sorted(self.live.items(), key=lambda kv: (-kv[1][0], -kv[1][1], kv[0]))
        out = []
        for vpn, (cls, heat) in ranked[:budget]:
            del self.live[vpn]
            self.sums[cls] -= heat
            self.counts[cls] -= 1
            out.append((vpn, heat, cls))
        return out


#: heats that tie, sit at zero, land exactly on boost × mean (powers of
#: two keep the means exact), or dwarf the rest (multi-level climbs)
_HEATS = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 1e4]),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.floats(0.0, 100.0, allow_nan=False),
)
_BATCH = st.lists(
    st.tuples(st.integers(0, 24), _HEATS, st.sampled_from(list(PageClass))),
    max_size=20,
    unique_by=lambda entry: entry[0],
)
_OPS = st.lists(st.one_of(_BATCH, st.integers(0, 12)), min_size=1, max_size=25)


@settings(max_examples=150, deadline=None)
@given(ops=_OPS, boost=st.sampled_from([1.5, 2.0, 3.0]))
def test_matches_reference_semantics(ops, boost):
    """enqueue_many batches and pops, interleaved, serve exactly what
    the per-candidate model serves, with bit-equal class heat sums."""
    q = PromotionQueues(1, boost_factor=boost)
    ref = _ReferenceQueues(boost)
    for op in ops:
        if isinstance(op, int):
            vpns, heats, classes = q.pop(op)
            got = list(zip(vpns.tolist(), heats.tolist(), classes.tolist()))
            assert got == ref.pop(op)
        else:
            eff = q.enqueue_many(
                np.array([v for v, _, _ in op], dtype=np.int64),
                np.array([h for _, h, _ in op], dtype=np.float64),
                np.array([c for _, _, c in op], dtype=np.int8),
            )
            assert eff.tolist() == [ref.enqueue(v, h, c) for v, h, c in op]
        assert q.escalations == ref.escalations
        assert len(q) == len(ref.live)
        assert q._vpns.size == q._cls.size == q._heat.size == len(q)
        for c in PageClass:
            assert q.depth(c) == ref.counts[c]
            assert q._heat_sum[c] == ref.sums[c]
