"""Bulk admission against its scalar references.

``AddressSpace.populate`` must leave exactly the state one ``fault()``
per unmapped vpn leaves, ``LruSubsystem.add_pages`` exactly the state of
one ``add_page`` per page, and ``bulk_note_access`` exactly the state of
one ``note_access`` per vpn.  Small machines, so every structure can be
compared whole.
"""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.harness.experiment import ColocationExperiment
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator, OutOfFramesError
from repro.mm.lru import PAGEVEC_SIZE, LruSubsystem
from repro.mm.replication import ReplicatedPageTables
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.pagerank import PageRankWorkload
from tests.conftest import make_process

#: enough threads that a leaf's tid set can hold colliding hashes, so
#: set iteration order exposes the order in which leaves were linked
N_THREADS = 16


# -- state snapshots ----------------------------------------------------------


def repl_state(repl: ReplicatedPageTables, ordered: bool = True) -> dict:
    """The PTEs, leaf links and stats; ``ordered`` keeps link order."""
    flat = repl.flat
    vpns = flat.present_vpns()
    i = flat.indices(vpns)
    leaf_tids = [(base, list(tids)) for base, tids in repl._leaf_tids.items()]
    return {
        "leaf_tids": leaf_tids if ordered else sorted((b, sorted(t)) for b, t in leaf_tids),
        "flat": (flat.mapped, vpns.tolist(), flat.pfn[i].tolist(), flat.owner[i].tolist(),
                 flat.dirty[i].tolist(), flat.value[i].tolist()),
        "stats": (repl.stats.private_faults, repl.stats.shared_promotions, repl.stats.leaf_links),
    }


def space_state(space: AddressSpace) -> dict:
    alloc = space.allocator
    store = alloc.store
    return {
        **repl_state(space.process.repl),
        "faults": (space.major_faults, space.minor_faults),
        "free_lists": [list(t.free_list) for t in alloc.tiers],
        "capacity": store.capacity,
        "store": {name: getattr(store, name).tolist() for name in store._COLUMNS},
    }


# -- populate vs a scalar fault() loop ----------------------------------------


def scalar_populate(space: AddressSpace, vma, tids, *, prefer_tier: int = 0) -> int:
    """The reference: one fault() per unmapped vpn, ascending."""
    tids = np.broadcast_to(np.asarray(tids), (vma.n_pages,))
    mapped = 0
    for i, vpn in enumerate(vma.vpns().tolist()):
        if space.process.repl.lookup(vpn) is None:
            space.fault(vpn, int(tids[i]), prefer_tier=prefer_tier)
            mapped += 1
    return mapped


def round_robin(n: int) -> np.ndarray:
    return np.arange(n, dtype=np.int64) % N_THREADS


def sharded(n: int) -> np.ndarray:
    return np.minimum(np.arange(n, dtype=np.int64) // max(n // N_THREADS, 1), N_THREADS - 1)


def runs(n: int) -> np.ndarray:
    """Runs of 37 pages, each touched by a random thread: every leaf
    sees a few threads in no particular order."""
    tids = np.random.default_rng(n).integers(0, N_THREADS, size=n // 37 + 1)
    return np.repeat(tids, 37)[:n]


def build(populate, *, fast, slow, sizes, first_touch, prefer_tier=0, replication=True,
          recycle=0, prefault=()):
    """One world: optionally a departed pid's recycled frames, then a
    process whose VMAs are filled by ``populate`` (after scalar faults
    of the ``prefault`` page offsets of its last VMA)."""
    alloc = FrameAllocator(fast_frames=fast, slow_frames=slow, chunk_frames=4)
    if recycle:
        gone = AddressSpace(make_process(pid=9, n_threads=N_THREADS), alloc)
        scalar_populate(gone, gone.process.mmap(recycle), round_robin(recycle))
        alloc.free_pid(9)
    proc = make_process(pid=1, n_threads=N_THREADS, replication=replication)
    space = AddressSpace(proc, alloc)
    vmas = [proc.mmap(n) for n in sizes]
    for off in prefault:
        space.fault(vmas[-1].start_vpn + off, tid=3, prefer_tier=prefer_tier)
    counts = [populate(space, vma, first_touch(vma.n_pages), prefer_tier=prefer_tier) for vma in vmas]
    return space, counts


CASES = {
    # a 100-page VMA ends mid-leaf, so the 1200-page one starts mid-leaf
    "fast_to_slow_fallback": dict(fast=300, slow=2048, sizes=(100, 1200)),
    "populate_tier_1": dict(fast=64, slow=2048, sizes=(100, 1200), prefer_tier=1),
    # the departed pid leaves 64 fast + 16 slow frames recycled; 90
    # pages then take every fast one and 2 slow ones past the virgin 24
    "recycled_after_free_pid": dict(fast=64, slow=40, sizes=(90,), recycle=80),
    "replication_off": dict(fast=300, slow=2048, sizes=(100, 1200), replication=False),
    "partly_mapped": dict(fast=16, slow=256, sizes=(40,), prefault=(0, 7, 8, 39)),
}


@pytest.mark.parametrize("first_touch", [round_robin, sharded, runs], ids=["round_robin", "sharded", "runs"])
@pytest.mark.parametrize("case", list(CASES))
def test_populate_matches_scalar_faults(case, first_touch):
    kwargs = dict(CASES[case], first_touch=first_touch)
    bulk, bulk_counts = build(AddressSpace.populate, **kwargs)
    ref, ref_counts = build(scalar_populate, **kwargs)
    assert bulk_counts == ref_counts
    assert space_state(bulk) == space_state(ref)
    bulk.allocator.check_consistency()
    bulk.allocator.store.check_row_invariants()


def test_recycled_case_pops_recycled_frames():
    """The recycled case really reaches the recycled FIFO of both tiers."""
    space, _ = build(AddressSpace.populate, first_touch=round_robin, **CASES["recycled_after_free_pid"])
    fast, slow = space.allocator.tiers
    assert list(fast.free_list) == []
    assert list(slow.free_list) == list(range(66, 80))


def test_handle_faults_links_in_first_touch_order():
    """Tids 9 and 1 share a hash slot, so the leaf's tid set iterates in
    link order: 9 first, as its scalar fault came first."""
    vpns = np.arange(512, 532, dtype=np.int64)
    tids = np.array([9] * 10 + [1] * 10, dtype=np.int64)
    bulk, ref = ReplicatedPageTables(), ReplicatedPageTables()
    for repl in (bulk, ref):
        for tid in (1, 9):
            repl.register_thread(tid)
    bulk.handle_faults(vpns, tids, vpns + 7)
    for vpn, tid in zip(vpns.tolist(), tids.tolist()):
        ref.handle_fault(vpn, tid, vpn + 7)
    assert list(bulk._leaf_tids[1]) == list(ref._leaf_tids[1]) == [9, 1]
    assert repl_state(bulk) == repl_state(ref)


def test_admit_fills_lru_as_per_page_adds():
    """``_admit`` hands add_pages each page's frame and the core of its
    first-touch thread, in vpn order, then drains every pagevec."""
    unit = 10**6

    def tier(name: str, pages: int) -> TierConfig:
        return TierConfig(name=name, capacity_bytes=pages * unit, load_latency_ns=100.0, bandwidth_gbps=50.0)

    wl = PageRankWorkload(WorkloadSpec(name="pr", service=ServiceClass.BE, rss_pages=700), seed=1)
    exp = ColocationExperiment(
        "vulcan", [wl], seed=1, sim=SimulationConfig(page_unit_bytes=unit),
        machine_config=MachineConfig(n_cores=16, fast=tier("fast", 256), slow=tier("slow", 2048)),
    )
    calls = []
    add_pages = exp.lru.add_pages

    def spy(pfns, cpus):
        calls.append((pfns.tolist(), cpus.tolist()))
        add_pages(pfns, cpus)

    exp.lru.add_pages = spy
    pid = exp._admit(wl, 0)
    flat = exp._spaces[pid].process.repl.flat
    pfns = flat.pfn[flat.indices(wl.vma.vpns())]
    tids = wl.first_touch_tids() % wl.spec.n_threads
    assert flat.owner[flat.indices(wl.vma.vpns())].tolist() == tids.tolist()
    core_map = exp.policy.workloads[pid].thread_core_map
    assert calls == [(pfns.tolist(), [core_map[tid] for tid in tids.tolist()])]
    ref = LruSubsystem(n_cpus=16)
    for pfn, tid in zip(pfns.tolist(), tids.tolist()):
        ref.add_page(pfn, core_map[tid])
    ref.drain(None)
    assert lru_state(exp.lru) == lru_state(ref)


@pytest.mark.parametrize("prefer_tier", [0, 1])
def test_out_of_frames_takes_nothing(prefer_tier):
    alloc = FrameAllocator(fast_frames=8, slow_frames=32, chunk_frames=4)
    space = AddressSpace(make_process(n_threads=N_THREADS), alloc)
    vma = space.process.mmap(41 if prefer_tier == 0 else 33)
    before = space_state(space)
    with pytest.raises(OutOfFramesError):
        space.populate(vma, round_robin(vma.n_pages), prefer_tier=prefer_tier)
    assert space_state(space) == before
    alloc.check_consistency()


def test_unregistered_tid_takes_nothing():
    alloc = FrameAllocator(fast_frames=8, slow_frames=32)
    space = AddressSpace(make_process(n_threads=2), alloc)
    vma = space.process.mmap(6)
    before = space_state(space)
    with pytest.raises(KeyError):
        space.populate(vma, np.array([0, 1, 0, 1, 5, 0]))
    assert space_state(space) == before


def test_populate_rejects_foreign_vma():
    alloc = FrameAllocator(fast_frames=8, slow_frames=32)
    space = AddressSpace(make_process(), alloc)
    other = make_process(pid=2).mmap(4)
    with pytest.raises(KeyError):
        space.populate(other, 0)


# -- add_pages vs add_page × n --------------------------------------------------


def lru_state(lru: LruSubsystem) -> dict:
    return {
        "pending": [list(vec.pending) for vec in lru.pagevecs],
        "drains": (lru.drain_all_calls, lru.scoped_drain_calls),
    }


@pytest.mark.parametrize("n", [0, 1, PAGEVEC_SIZE - 1, PAGEVEC_SIZE, PAGEVEC_SIZE + 1, 97, 1000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_add_pages_matches_scalar_adds(n, seed):
    rng = np.random.default_rng(seed)
    n_cpus = 5
    pfns = rng.permutation(np.arange(n + 10, dtype=np.int64))[:n]
    cpus = rng.integers(0, n_cpus, size=n) if seed else np.zeros(n, dtype=np.int64)
    bulk, ref = LruSubsystem(n_cpus), LruSubsystem(n_cpus)
    bulk.add_pages(pfns, cpus)
    for pfn, cpu in zip(pfns.tolist(), cpus.tolist()):
        ref.add_page(pfn, cpu)
    assert lru_state(bulk) == lru_state(ref)
    assert bulk.drain(None) == ref.drain(None)
    assert lru_state(bulk) == lru_state(ref)


def test_add_pages_needs_empty_pagevecs():
    lru = LruSubsystem(n_cpus=2)
    lru.add_page(1, 1)
    with pytest.raises(RuntimeError):
        lru.add_pages(np.array([2]), np.array([0]))


# -- bulk_note_access vs note_access × n ----------------------------------------


def owned_tables(seed: int) -> ReplicatedPageTables:
    """1500 pages over four leaves, owned in runs of 150 by random
    threads (so most threads are not yet linked to most leaves); a few
    pages already shared."""
    rng = np.random.default_rng(seed)
    repl = ReplicatedPageTables(enabled=True)
    for tid in range(N_THREADS):
        repl.register_thread(tid)
    vpns = np.arange(700, 2200, dtype=np.int64)
    tids = np.repeat(rng.integers(0, N_THREADS, size=10), 150)
    repl.handle_faults(vpns, tids, np.arange(vpns.size, dtype=np.int64))
    for vpn in rng.choice(vpns, size=50, replace=False).tolist():
        repl.note_access(vpn, int(rng.integers(0, N_THREADS)))
    return repl


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_bulk_note_access_matches_scalar(seed):
    rng = np.random.default_rng(100 + seed)
    bulk, ref = owned_tables(seed), owned_tables(seed)
    for _ in range(6):
        tid = int(rng.integers(0, N_THREADS))
        vpns = np.unique(rng.choice(np.arange(700, 2200), size=int(rng.integers(1, 400))))
        if rng.random() < 0.3:
            vpns = rng.permutation(vpns)  # unordered input takes the general path
        flips = bulk.bulk_note_access(vpns, tid)
        assert flips == sum(ref.note_access(vpn, tid) for vpn in vpns.tolist())
    # Link order within one call may differ (flips link before shared
    # pages do), so leaf links are compared up to order.
    assert repl_state(bulk, ordered=False) == repl_state(ref, ordered=False)
    assert bulk.stats.shared_promotions > 0


def test_bulk_note_access_rejects_unmapped():
    repl = owned_tables(0)
    with pytest.raises(KeyError):
        repl.bulk_note_access(np.array([2200 + 5]), 0)
