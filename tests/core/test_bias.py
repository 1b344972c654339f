"""Biased migration policy: candidate selection and Table 1 dispatch."""

import numpy as np
import pytest

from repro.core.bias import BiasedMigrationPolicy, _coldest_first
from repro.core.classify import PageClass
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.shadow import ShadowTracker
from repro.profiling.base import AccessBatch
from repro.profiling.pebs import PebsProfiler
from tests.conftest import populated_space


def setup(fast=4, slow=64, n_pages=12, n_threads=2):
    alloc = FrameAllocator(fast_frames=fast, slow_frames=slow)
    space = populated_space(alloc, n_pages=n_pages, n_threads=n_threads)
    prof = PebsProfiler(period=1)  # exact counting for determinism
    policy = BiasedMigrationPolicy(hot_threshold=4.0)
    return alloc, space, prof, policy


def feed(prof, space, vpn, n, write=False, tid=None):
    owner_tid = tid if tid is not None else 0
    batch = AccessBatch(
        pid=space.process.pid,
        tid=owner_tid,
        vpns=np.full(n, vpn, dtype=np.int64),
        is_write=np.full(n, write, dtype=bool),
    )
    prof.observe(batch)
    space.process.repl.note_access(vpn, owner_tid)


def test_only_hot_slow_pages_become_candidates():
    alloc, space, prof, policy = setup()
    vma = space.process.vmas[0]
    slow_vpn = vma.start_vpn + 6  # beyond the 4 fast frames
    fast_vpn = vma.start_vpn + 0
    cold_vpn = vma.start_vpn + 7
    feed(prof, space, slow_vpn, 20)
    feed(prof, space, fast_vpn, 20)
    feed(prof, space, cold_vpn, 1)
    n = policy.refresh_candidates(space.process.pid, prof, space.process.repl, alloc)
    assert n == 1
    picks = policy.select_promotions(space.process.pid, 10, prof)
    assert picks.vpns.tolist() == [slow_vpn]
    assert picks.classes.tolist() == [PageClass.PRIVATE_READ]


def test_read_intensive_goes_async_write_intensive_sync():
    alloc, space, prof, policy = setup()
    vma = space.process.vmas[0]
    rd, wr = vma.start_vpn + 6, vma.start_vpn + 7
    feed(prof, space, rd, 20, write=False, tid=0)
    feed(prof, space, wr, 20, write=True, tid=1)
    policy.refresh_candidates(space.process.pid, prof, space.process.repl, alloc)
    picks = policy.select_promotions(space.process.pid, 10, prof)
    by_vpn = dict(zip(picks.vpns.tolist(), zip(picks.sync.tolist(), picks.classes.tolist())))
    assert by_vpn[rd] == (False, PageClass.PRIVATE_READ)
    assert by_vpn[wr] == (True, PageClass.PRIVATE_WRITE)
    assert picks.write_fractions.tolist() == [
        prof.write_fraction(space.process.pid, v) for v in picks.vpns.tolist()
    ]


def test_private_read_served_before_shared_write():
    alloc, space, prof, policy = setup()
    vma = space.process.vmas[0]
    pr, sw = vma.start_vpn + 6, vma.start_vpn + 7
    feed(prof, space, pr, 10, write=False, tid=0)
    feed(prof, space, sw, 10, write=True, tid=0)
    feed(prof, space, sw, 10, write=True, tid=1)  # second thread → shared
    policy.refresh_candidates(space.process.pid, prof, space.process.repl, alloc)
    picks = policy.select_promotions(space.process.pid, 1, prof)
    assert picks.vpns.tolist() == [pr]


def test_demotion_selects_coldest_fast_pages():
    alloc, space, prof, policy = setup(fast=4)
    vma = space.process.vmas[0]
    # Pages 0..3 are fast; heat them unevenly.
    for i, count in enumerate([50, 2, 40, 1]):
        feed(prof, space, vma.start_vpn + i, count, tid=i % 2)
    demos = policy.select_demotions(space.process.pid, 2, prof, space.process.repl, alloc)
    assert demos.vpns.tolist() == [vma.start_vpn + 3, vma.start_vpn + 1]
    assert demos.sync.all() and not demos.write_fractions.any() and not demos.classes.any()


def test_demotion_prefers_shadowed_clean_pages_at_similar_heat():
    alloc, space, prof, policy = setup(fast=4)
    vma = space.process.vmas[0]
    shadow = ShadowTracker()
    # Four equally-warm fast pages; one has a retained shadow.
    for i in range(4):
        feed(prof, space, vma.start_vpn + i, 10, tid=i % 2)
    pfn0 = space.translate(vma.start_vpn + 0)
    shadow.retain(np.array([pfn0]), np.array([999]))
    demos = policy.select_demotions(space.process.pid, 1, prof, space.process.repl, alloc, shadow=shadow)
    assert demos.vpns.tolist() == [vma.start_vpn + 0]


@pytest.mark.parametrize("seed", range(4))
def test_coldest_first_equals_full_lexsort_on_tied_keys(seed):
    rng = np.random.default_rng(seed)
    for size in (1, 2, 7, 60, 500):
        # a few levels, halved where "shadowed": ties everywhere
        key = rng.choice([0.0, 0.0, 1.0, 2.0, 4.0], size) * rng.choice([1.0, 0.5], size)
        want = np.lexsort((np.arange(size), key))
        for n in range(1, size + 3):  # up to and past n >= N
            np.testing.assert_array_equal(_coldest_first(key, n), want[:n])


def test_select_demotions_matches_full_lexsort():
    """Tie-heavy heats, shadowed pages and an exclude set, for budgets
    below, at and above the number of fast pages."""
    alloc, space, prof, policy = setup(fast=40, slow=64, n_pages=60)
    pid, repl, flat = space.process.pid, space.process.repl, space.process.repl.flat
    vma = space.process.vmas[0]
    rng = np.random.default_rng(5)
    for i in range(60):
        count = int(rng.choice([0, 0, 0, 2, 4]))  # most pages never heated
        if count:
            feed(prof, space, vma.start_vpn + i, count, tid=i % 2)
    shadow = ShadowTracker()
    shadowed = range(0, 40, 3)
    shadow.retain(
        np.array([space.translate(vma.start_vpn + i) for i in shadowed]),
        np.array([1000 + i for i in shadowed]),
    )
    exclude = np.array([vma.start_vpn + i for i in (1, 4, 9, 30, 45)])
    for n in (1, 5, 17, 35, 36, 100):  # 36 fast pages are not excluded
        got = policy.select_demotions(pid, n, prof, repl, alloc, shadow=shadow, exclude=exclude)
        vpns = flat.present_vpns()
        pfns = flat.pfn[vpns - flat.base]
        keep = (pfns < alloc.store.fast_frames) & ~np.isin(vpns, exclude)
        vpns, pfns = vpns[keep], pfns[keep]
        h = prof.heat_of(pid, vpns)
        shadowed = ~flat.dirty[vpns - flat.base] & shadow.shadowed_mask(pfns)
        order = np.lexsort((vpns, h * np.where(shadowed, 0.5, 1.0)))[:n]
        assert got.vpns.tolist() == vpns[order].tolist()
        assert got.heats.tolist() == h[order].tolist()


def test_budget_zero_returns_nothing():
    alloc, space, prof, policy = setup()
    assert len(policy.select_promotions(space.process.pid, 0, prof)) == 0
    assert len(policy.select_demotions(space.process.pid, 0, prof, space.process.repl, alloc)) == 0


def test_forget_clears_queues():
    alloc, space, prof, policy = setup()
    vma = space.process.vmas[0]
    feed(prof, space, vma.start_vpn + 6, 20)
    policy.refresh_candidates(space.process.pid, prof, space.process.repl, alloc)
    policy.forget(space.process.pid)
    assert len(policy.select_promotions(space.process.pid, 10, prof)) == 0
