"""The five-phase migration engine: promotion, demotion, transactional
copies, shadow fast paths, and optimization flags."""

import numpy as np
import pytest

from repro.machine.platform import Machine
from repro.mm import pte as P
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import (
    MigrationEngine,
    MigrationOutcome,
    MigrationRequest,
    OptimizationFlags,
)
from repro.mm.page import PageState
from repro.mm.shadow import ShadowTracker
from tests.conftest import make_process, small_machine_config


def build(fast=8, slow=64, flags=None, shadow=False, n_threads=4, replication=True):
    machine = Machine(small_machine_config(fast_pages=fast, slow_pages=slow))
    alloc = FrameAllocator(fast_frames=fast, slow_frames=slow)
    lru = LruSubsystem(n_cpus=machine.cpu.n_cores)
    proc = make_process(n_threads=n_threads, replication=replication)
    space = AddressSpace(proc, alloc)
    core_map = {tid: tid for tid in range(n_threads)}
    for tid, core in core_map.items():
        machine.cpu.schedule_thread(tid, core)
    tracker = ShadowTracker() if shadow else None
    engine = MigrationEngine(
        machine, alloc, space, lru,
        flags=flags or OptimizationFlags(),
        thread_core_map=core_map,
        shadow=tracker,
        rng=np.random.default_rng(1),
    )
    return engine, space, alloc, machine


def fault_pages(space, n, tier):
    vma = space.process.mmap(n)
    for i, vpn in enumerate(range(vma.start_vpn, vma.end_vpn)):
        space.fault(vpn, tid=i % len(space.process.tids), prefer_tier=tier)
    return vma


class TestBasicMoves:
    def test_promotion_repoints_pte_and_moves_metadata(self):
        engine, space, alloc, _ = build()
        vma = fault_pages(space, 1, tier=1)
        vpn = vma.start_vpn
        old_pfn = space.translate(vpn)
        alloc.page(old_pfn).heat = 5.0
        out = engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=0))
        assert out is MigrationOutcome.SUCCESS
        new_pfn = space.translate(vpn)
        assert alloc.tier_of_pfn(new_pfn) == 0
        assert alloc.page(new_pfn).heat == 5.0
        assert engine.stats.promotions == 1
        assert engine.stats.pages_moved == 1
        # Source frame freed (no shadowing configured).
        assert old_pfn in alloc.tiers[1].free_list

    def test_demotion(self):
        engine, space, alloc, _ = build()
        vma = fault_pages(space, 1, tier=0)
        out = engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=1))
        assert out is MigrationOutcome.SUCCESS
        assert alloc.tier_of_pfn(space.translate(vma.start_vpn)) == 1
        assert engine.stats.demotions == 1

    def test_already_on_dest_tier_is_noop_success(self):
        engine, space, alloc, _ = build()
        vma = fault_pages(space, 1, tier=0)
        out = engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        assert out is MigrationOutcome.SUCCESS
        assert engine.stats.pages_moved == 0

    def test_unmapped_page_fails(self):
        engine, _, _, _ = build()
        out = engine.migrate(MigrationRequest(pid=1, vpn=424242, dest_tier=0))
        assert out is MigrationOutcome.FAILED
        assert engine.stats.failures == 1
        # It fails before phase ③: no shootdown is delivered.
        assert engine.machine.cpu.ipi_stats.broadcasts == 0

    def test_full_destination_fails(self):
        engine, space, alloc, _ = build(fast=1)
        fault_pages(space, 1, tier=0)  # fast now full
        vma = fault_pages(space, 1, tier=1)
        out = engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        assert out is MigrationOutcome.FAILED

    def test_batch_pays_one_preparation(self):
        engine, space, alloc, _ = build()
        vma = fault_pages(space, 4, tier=1)
        reqs = [MigrationRequest(pid=1, vpn=v, dest_tier=0) for v in range(vma.start_vpn, vma.end_vpn)]
        engine.migrate_batch(reqs)
        assert engine.lru.drain_all_calls == 1
        assert engine.stats.migrations == 1
        assert engine.stats.pages_moved == 4

    def test_batch_with_repeated_vpn_rejected(self):
        """The deferred row scatters need disjoint rows: a batch naming a
        vpn twice is refused before anything is charged or moved."""
        engine, space, alloc, _ = build()
        vma = fault_pages(space, 2, tier=1)
        v = vma.start_vpn
        reqs = [
            MigrationRequest(pid=1, vpn=v, dest_tier=0),
            MigrationRequest(pid=1, vpn=v + 1, dest_tier=0),
            MigrationRequest(pid=1, vpn=v, dest_tier=1),
        ]
        with pytest.raises(ValueError, match="more than once"):
            engine.migrate_batch(reqs)
        assert engine.stats.migrations == 0
        assert engine.stats.total_cycles == 0.0
        assert alloc.tier_of_pfn(space.translate(v)) == 1
        alloc.check_consistency()


class TestCopyDisciplines:
    def test_sync_copy_charges_stall(self):
        engine, space, _, _ = build()
        vma = fault_pages(space, 1, tier=1)
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0, sync=True))
        assert engine.stats.stall_cycles > 0

    def test_transactional_clean_page_minimal_stall(self):
        engine, space, _, _ = build()
        vma = fault_pages(space, 1, tier=1)
        out = engine.migrate(
            MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0, sync=False, write_fraction=0.0)
        )
        assert out is MigrationOutcome.SUCCESS
        assert engine.stats.retries == 0
        # Only the commit shootdown stalls — far less than a sync copy.
        sync_engine, sync_space, _, _ = build()
        v2 = fault_pages(sync_space, 1, tier=1)
        sync_engine.migrate(MigrationRequest(pid=1, vpn=v2.start_vpn, dest_tier=0, sync=True))
        assert engine.stats.stall_cycles < sync_engine.stats.stall_cycles

    def test_transactional_write_heavy_retries_then_falls_back(self):
        engine, space, _, _ = build(flags=OptimizationFlags(async_retry_limit=2))
        vma = fault_pages(space, 1, tier=1)
        out = engine.migrate(
            MigrationRequest(
                pid=1, vpn=vma.start_vpn, dest_tier=0, sync=False,
                write_fraction=1.0, access_rate_per_kcycle=100.0,
            )
        )
        assert out is MigrationOutcome.FELL_BACK_SYNC
        assert engine.stats.retries == 3  # limit + the failed final try
        assert engine.stats.sync_fallbacks == 1
        # Page still migrated (by the fallback).
        assert engine.stats.pages_moved == 1

    def test_dirty_probability_zero_without_writes(self):
        """A read-only page is never dirtied mid-copy: one copy, no
        retries, and no dirty-roll RNG draw however hot the page is."""
        engine, space, _, _ = build()
        vma = fault_pages(space, 1, tier=1)
        rng_state = engine.rng.bit_generator.state
        out = engine.migrate(
            MigrationRequest(
                pid=1, vpn=vma.start_vpn, dest_tier=0, sync=False,
                write_fraction=0.0, access_rate_per_kcycle=100.0,
            )
        )
        assert out is MigrationOutcome.SUCCESS
        assert engine.stats.retries == 0
        assert engine.stats.phase_cycles["copy"] == engine.costs.batch_copy_cycles(1)
        assert engine.rng.bit_generator.state == rng_state


class TestShadowing:
    def test_promotion_retains_shadow(self):
        engine, space, alloc, _ = build(shadow=True)
        vma = fault_pages(space, 1, tier=1)
        old_pfn = space.translate(vma.start_vpn)
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        new_pfn = space.translate(vma.start_vpn)
        assert engine.shadow.shadow_of(new_pfn) == old_pfn
        assert old_pfn not in alloc.tiers[1].free_list  # frame retained
        assert P.pte_decode(space.process.repl.lookup(vma.start_vpn)).shadowed

    def test_clean_demotion_remaps_to_shadow(self):
        engine, space, alloc, _ = build(shadow=True)
        vma = fault_pages(space, 1, tier=1)
        old_pfn = space.translate(vma.start_vpn)
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        copies_before = engine.stats.phase_cycles["copy"]
        out = engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=1))
        assert out is MigrationOutcome.SUCCESS
        assert engine.stats.shadow_remaps == 1
        # No copy was paid for the demotion.
        assert engine.stats.phase_cycles["copy"] == copies_before
        assert space.translate(vma.start_vpn) == old_pfn

    def test_dirty_promoted_page_demotes_by_copy(self):
        engine, space, alloc, _ = build(shadow=True)
        vma = fault_pages(space, 1, tier=1)
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        # Dirty the fast copy: shadow diverges.
        repl = space.process.repl
        repl.update(vma.start_vpn, P.pte_set_flag(repl.lookup(vma.start_vpn), P.PTE_DIRTY))
        copies_before = engine.stats.phase_cycles["copy"]
        out = engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=1))
        assert out is MigrationOutcome.SUCCESS
        assert engine.stats.shadow_remaps == 0
        assert engine.stats.phase_cycles["copy"] > copies_before


class TestOptimizationFlags:
    def test_opt_prep_uses_scoped_drain(self):
        engine, space, _, _ = build(flags=OptimizationFlags(opt_prep=True, prep_scope_cpus=2))
        vma = fault_pages(space, 1, tier=1)
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        assert engine.lru.scoped_drain_calls == 1
        assert engine.lru.drain_all_calls == 0

    def test_opt_prep_cheaper_total(self):
        base_engine, base_space, _, _ = build()
        v1 = fault_pages(base_space, 1, tier=1)
        base_engine.migrate(MigrationRequest(pid=1, vpn=v1.start_vpn, dest_tier=0))

        opt_engine, opt_space, _, _ = build(flags=OptimizationFlags(opt_prep=True))
        v2 = fault_pages(opt_space, 1, tier=1)
        opt_engine.migrate(MigrationRequest(pid=1, vpn=v2.start_vpn, dest_tier=0))
        assert opt_engine.stats.total_cycles < base_engine.stats.total_cycles

    def test_opt_tlb_scopes_shootdown_for_private_page(self):
        engine, space, alloc, machine = build(flags=OptimizationFlags(opt_tlb=True))
        vma = fault_pages(space, 1, tier=1)  # owned by tid 0
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        assert machine.cpu.ipi_stats.unicast_targets == 1

        wide_engine, wide_space, _, wide_machine = build(flags=OptimizationFlags(opt_tlb=False))
        v2 = fault_pages(wide_space, 1, tier=1)
        wide_engine.migrate(MigrationRequest(pid=1, vpn=v2.start_vpn, dest_tier=0))
        assert wide_machine.cpu.ipi_stats.unicast_targets == 4  # all threads

    def test_opt_tlb_scopes_shared_page_to_linked_threads(self):
        engine, space, _, machine = build(flags=OptimizationFlags(opt_tlb=True))
        vma = fault_pages(space, 1, tier=1)  # faulted by tid 0
        space.process.repl.note_access(vma.start_vpn, tid=3)  # now shared
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        # Only tids 0 and 3 linked the leaf; tids 1 and 2 get no IPI.
        assert machine.cpu.ipi_stats.broadcasts == 1
        assert machine.cpu.ipi_stats.unicast_targets == 2

    def test_opt_tlb_without_replication_falls_back_wide(self):
        engine, space, _, machine = build(flags=OptimizationFlags(opt_tlb=True), replication=False)
        vma = fault_pages(space, 1, tier=1)
        engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0))
        assert machine.cpu.ipi_stats.unicast_targets == 4


class TestFaultInjection:
    """Typed fault absorption: every injected fault unwinds without
    corrupting page state, and each kind has its distinct signature."""

    def _injector(self, probs):
        from repro.scenario.faults import FaultInjector

        inj = FaultInjector(seed=7)
        inj.configure(probs)
        inj.epoch = 0
        return inj

    def test_aborted_sync_unwinds_and_stalls(self):
        engine, space, alloc, _ = build()
        vma = fault_pages(space, 1, tier=1)
        vpn = vma.start_vpn
        src = space.translate(vpn)
        engine.fault_injector = self._injector({"aborted_sync": 1.0})
        stall0 = engine.stats.stall_cycles
        out = engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=0))
        assert out is MigrationOutcome.FAILED
        # The page never moved; the half-copy stalled the app.
        assert space.translate(vpn) == src
        assert engine.stats.stall_cycles > stall0
        assert engine.stats.faults_injected == {"aborted_sync": 1}
        assert engine.stats.failures == 1
        # The dest frame was unwound back to the free list.
        assert alloc.tiers[0].free == 8
        assert len(engine.fault_injector.records) == 1

    def test_lost_async_keeps_source_mapped_no_stall(self):
        engine, space, alloc, _ = build()
        vma = fault_pages(space, 1, tier=1)
        vpn = vma.start_vpn
        src = space.translate(vpn)
        engine.fault_injector = self._injector({"lost_async": 1.0})
        out = engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=0, sync=False))
        assert out is MigrationOutcome.FAILED
        assert space.translate(vpn) == src
        assert alloc.page(src).state is PageState.MAPPED
        # Background copy wasted cycles but never stalled the app.
        assert engine.stats.stall_cycles == 0
        assert engine.stats.faults_injected == {"lost_async": 1}
        assert alloc.tiers[0].free == 8

    def test_poisoned_shadow_falls_back_to_full_copy(self):
        engine, space, alloc, _ = build(shadow=True)
        vma = fault_pages(space, 1, tier=1)
        vpn = vma.start_vpn
        # Promote with shadowing: the slow frame is retained as a twin.
        assert engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=0)) is MigrationOutcome.SUCCESS
        fast_pfn = space.translate(vpn)
        assert engine.shadow.shadow_of(fast_pfn) is not None
        engine.fault_injector = self._injector({"poisoned_shadow": 1.0})
        out = engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=1))
        # The corrupt twin was discarded and a full-copy demotion ran.
        assert out is MigrationOutcome.SUCCESS
        assert alloc.tier_of_pfn(space.translate(vpn)) == 1
        assert engine.shadow.stats.poisoned == 1
        assert engine.shadow.stats.remap_demotions == 0
        assert engine.stats.faults_injected == {"poisoned_shadow": 1}
        alloc.check_consistency()

    def test_aborted_move_returns_frame_freed_earlier_in_batch(self):
        """An aborted move's destination was popped but never bound.  When
        that frame was freed by an earlier move of the same batch, it goes
        back on its list with a free row, and the earlier move's carried
        state still lands intact."""
        engine, space, alloc, _ = build(fast=2)
        hot = fault_pages(space, 2, tier=0)  # fast tier now full
        cold = fault_pages(space, 1, tier=1)
        demoted_src = space.translate(hot.start_vpn)
        alloc.page(demoted_src).heat = 5.0
        engine.fault_injector = self._injector({"aborted_sync": 1.0})
        outs = engine.migrate_batch([
            # transactional: only lost_async is rolled, and it is unarmed
            MigrationRequest(pid=1, vpn=hot.start_vpn, dest_tier=1, sync=False),
            # pops the frame the demotion just freed, then aborts
            MigrationRequest(pid=1, vpn=cold.start_vpn, dest_tier=0, sync=True),
        ])
        assert outs == [MigrationOutcome.SUCCESS, MigrationOutcome.FAILED]
        assert engine.stats.faults_injected == {"aborted_sync": 1}
        assert alloc.page(space.translate(hot.start_vpn)).heat == 5.0
        assert alloc.tier_of_pfn(space.translate(cold.start_vpn)) == 1
        assert list(alloc.tiers[0].free_list) == [demoted_src]
        assert alloc.page(demoted_src).state is PageState.FREE
        alloc.check_consistency()
        alloc.store.check_row_invariants()

    def test_poisoned_shadow_frame_reused_in_same_batch(self):
        """A poisoned twin is freed at once; the full-copy demotion that
        replaces the remap may pop that very frame as its destination."""
        engine, space, alloc, _ = build(fast=2, slow=2, shadow=True)
        vma = fault_pages(space, 2, tier=1)  # slow tier now full
        vpn = vma.start_vpn
        twin = space.translate(vpn)
        engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=0))
        alloc.page(space.translate(vpn)).heat = 3.0
        engine.fault_injector = self._injector({"poisoned_shadow": 1.0})
        assert engine.migrate_batch([MigrationRequest(pid=1, vpn=vpn, dest_tier=1)]) == [
            MigrationOutcome.SUCCESS
        ]
        assert space.translate(vpn) == twin
        assert alloc.page(twin).heat == 3.0
        assert engine.stats.shadow_remaps == 0
        alloc.check_consistency()
        alloc.store.check_row_invariants()

    def test_unarmed_injector_is_bit_free(self):
        """Attaching an injector with no armed kinds must not consume
        RNG state or change outcomes versus no injector at all."""
        def run(injector):
            engine, space, _, _ = build()
            vma = fault_pages(space, 4, tier=1)
            engine.fault_injector = injector
            outs = [
                engine.migrate(MigrationRequest(pid=1, vpn=v, dest_tier=0))
                for v in range(vma.start_vpn, vma.end_vpn)
            ]
            return outs, engine.stats.stall_cycles

        unarmed = self._injector({})
        assert run(None) == run(unarmed)
        assert not unarmed.records
