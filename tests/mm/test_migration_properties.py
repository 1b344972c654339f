"""Property-based integrity tests for the migration engine.

Arbitrary interleavings of promotions and demotions (sync and
transactional, with and without shadowing, with and without injected
faults, page by page or in batches) must preserve the virtual memory
invariants: every VPN stays mapped to exactly one live frame of the
claimed tier, no frame backs two VPNs, and allocator accounting
balances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine.platform import Machine
from repro.mm import pte as pte_mod
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, MigrationRequest, OptimizationFlags
from repro.mm.page import PageState
from repro.mm.shadow import ShadowTracker
from repro.scenario.faults import FaultInjector
from tests.conftest import make_process, small_machine_config

N_PAGES = 12
FAST = 8  # two frames of fast-tier headroom over the six pages populated fast
SLOW = 24


def build(shadow: bool, seed: int):
    machine = Machine(small_machine_config(fast_pages=FAST, slow_pages=SLOW))
    alloc = FrameAllocator(fast_frames=FAST, slow_frames=SLOW)
    lru = LruSubsystem(n_cpus=machine.cpu.n_cores)
    proc = make_process(n_threads=2)
    space = AddressSpace(proc, alloc)
    vma = proc.mmap(N_PAGES)
    for i, vpn in enumerate(range(vma.start_vpn, vma.end_vpn)):
        space.fault(vpn, tid=i % 2, prefer_tier=i % 2)
    engine = MigrationEngine(
        machine, alloc, space, lru,
        flags=OptimizationFlags(opt_prep=True, opt_tlb=True),
        thread_core_map={0: 0, 1: 1},
        shadow=ShadowTracker() if shadow else None,
        rng=np.random.default_rng(seed),
    )
    return engine, space, alloc, vma


def check_invariants(space, alloc):
    seen = {}
    for vpn, value in space.process.repl.iter_ptes():
        assert pte_mod.pte_is_present(value)
        pfn = pte_mod.pte_pfn(value)
        assert pfn not in seen, f"frame {pfn} double-mapped ({seen[pfn]} and {vpn})"
        seen[pfn] = vpn
        page = alloc.page(pfn)
        assert page.state in (PageState.MAPPED, PageState.MIGRATING)
        assert page.vpn == vpn
        assert page.tier_id == alloc.tier_of_pfn(pfn)
        # A mapped frame must never be on a free list.
        assert pfn not in alloc.tiers[page.tier_id].free_list
    assert len(seen) == N_PAGES  # nothing ever unmapped
    return seen


def unique_vpn_batches(moves, cap: int):
    """Split ``moves`` in order into batches of at most ``cap`` moves,
    starting a new batch wherever a page would repeat."""
    batches: list[list] = []
    for move in moves:
        if not batches or len(batches[-1]) == cap or move[0] in {m[0] for m in batches[-1]}:
            batches.append([])
        batches[-1].append(move)
    return batches


@settings(max_examples=40, deadline=None)
@given(
    moves=st.lists(
        st.tuples(
            st.integers(0, N_PAGES - 1),  # which page
            st.integers(0, 1),  # destination tier
            st.booleans(),  # sync?
            st.floats(0.0, 1.0),  # write fraction
        ),
        max_size=30,
    ),
    shadow=st.booleans(),
    seed=st.integers(0, 2**31),
    # per-kind injected-fault probabilities (aborted_sync, lost_async,
    # poisoned_shadow), or no injector at all
    faults=st.none() | st.tuples(*[st.floats(0.0, 1.0)] * 3),
    batch_cap=st.integers(1, 8),  # 1 = page by page
)
def test_arbitrary_migration_sequences_preserve_mappings(moves, shadow, seed, faults, batch_cap):
    engine, space, alloc, vma = build(shadow, seed)
    if faults is not None:
        engine.fault_injector = FaultInjector(seed=seed)
        engine.fault_injector.configure(dict(zip(("aborted_sync", "lost_async", "poisoned_shadow"), faults)))
        engine.fault_injector.epoch = 0
    for batch in unique_vpn_batches(moves, batch_cap):
        engine.migrate_batch([
            MigrationRequest(
                pid=space.process.pid,
                vpn=vma.start_vpn + idx,
                dest_tier=dest,
                sync=sync,
                write_fraction=wf,
                access_rate_per_kcycle=0.5,
            )
            for idx, dest, sync, wf in batch
        ])
        check_invariants(space, alloc)
        alloc.check_consistency()
        alloc.store.check_row_invariants()
        # Global conservation: live mappings + shadows + free == all frames.
        shadows = len(engine.shadow) if engine.shadow is not None else 0
        assert N_PAGES + shadows + alloc.free_frames(0) + alloc.free_frames(1) == FAST + SLOW


@settings(max_examples=15, deadline=None)
@given(
    batch=st.lists(st.integers(0, N_PAGES - 1), min_size=1, max_size=N_PAGES, unique=True),
    seed=st.integers(0, 2**31),
)
def test_batch_promotion_respects_capacity(batch, seed):
    """Promoting more pages than the fast tier holds must fail cleanly
    for the overflow, never corrupt mappings."""
    engine, space, alloc, vma = build(shadow=False, seed=seed)
    reqs = [
        MigrationRequest(pid=space.process.pid, vpn=vma.start_vpn + i, dest_tier=0, sync=True)
        for i in batch
    ]
    outcomes = engine.migrate_batch(reqs)
    assert len(outcomes) == len(batch)
    check_invariants(space, alloc)
    fast_used = alloc.tiers[0].used
    assert fast_used <= FAST


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31))
def test_shadow_roundtrip_restores_original_frame(seed):
    """Promote clean, demote via shadow: the page returns to its exact
    original slow frame, with stats balanced."""
    engine, space, alloc, vma = build(shadow=True, seed=seed)
    # Page 1 started slow (odd index populated slow).
    vpn = vma.start_vpn + 1
    original = space.translate(vpn)
    assert alloc.tier_of_pfn(original) == 1
    out = engine.migrate(MigrationRequest(pid=space.process.pid, vpn=vpn, dest_tier=0, sync=True))
    from repro.mm.migration import MigrationOutcome

    assert out is MigrationOutcome.SUCCESS
    engine.migrate(MigrationRequest(pid=space.process.pid, vpn=vpn, dest_tier=1, sync=True))
    assert space.translate(vpn) == original
    assert engine.stats.shadow_remaps == 1
    check_invariants(space, alloc)
