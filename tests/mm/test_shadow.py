"""Nomad-style page shadowing: the twin table and the executor's use of it."""

import numpy as np
import pytest

from repro.machine.platform import Machine
from repro.mm import pte as P
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, MigrationOutcome, MigrationRequest
from repro.mm.page import PageState
from repro.mm.shadow import ShadowTracker
from repro.scenario.faults import FaultInjector
from tests.conftest import make_process, small_machine_config


def a(*values):
    return np.array(values, dtype=np.int64)


def promoted_page(faults=None, slow=8):
    """An engine with shadowing whose one page was promoted: returns the
    engine, its space, the page's vpn, its fast frame and its twin."""
    machine = Machine(small_machine_config(fast_pages=4, slow_pages=slow))
    alloc = FrameAllocator(fast_frames=4, slow_frames=slow)
    space = AddressSpace(make_process(n_threads=2), alloc)
    engine = MigrationEngine(
        machine, alloc, space, LruSubsystem(n_cpus=machine.cpu.n_cores),
        thread_core_map={0: 0, 1: 1}, shadow=ShadowTracker(), rng=np.random.default_rng(1),
    )
    vpn = space.process.mmap(1).start_vpn
    space.fault(vpn, tid=0, prefer_tier=1)
    twin = space.translate(vpn)
    assert engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=0)) is MigrationOutcome.SUCCESS
    if faults is not None:
        engine.fault_injector = FaultInjector(seed=3)
        engine.fault_injector.configure(faults)
        engine.fault_injector.epoch = 0
    return engine, space, vpn, space.translate(vpn), twin


def test_retain_and_lookup():
    s = ShadowTracker()
    s.retain(a(1, 3), a(100, 102))
    assert s.twins(a(3, 1, 2)).tolist() == [102, 100, -1]
    assert s.shadowed_mask(a(1, 2, 3)).tolist() == [True, False, True]
    assert len(s) == 2
    assert s.stats.retained == 2


def test_double_retain_rejected():
    s = ShadowTracker()
    s.retain(a(1), a(100))
    with pytest.raises(ValueError, match="already shadowed"):
        s.retain(a(2, 1), a(101, 102))
    assert s.twins(a(1, 2)).tolist() == [100, -1]


def test_write_invalidates():
    """A drop forgets the twin, and the frame can take a new one."""
    s = ShadowTracker()
    s.retain(a(1, 2), a(100, 101))
    s.drop(a(1))
    assert s.twins(a(1, 2)).tolist() == [-1, 101]
    assert len(s) == 1
    s.retain(a(1), a(102))
    assert s.twins(a(1)).tolist() == [102]


def test_clean_page_remap_demotable():
    engine, space, vpn, fast, twin = promoted_page()
    assert engine.shadow.twins(a(fast)).tolist() == [twin]
    assert engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=1)) is MigrationOutcome.SUCCESS
    assert space.translate(vpn) == twin
    assert engine.shadow.stats.remap_demotions == 1
    assert engine.shadow.twins(a(fast)).tolist() == [-1]
    assert len(engine.shadow) == 0


def test_dirty_page_not_remap_demotable_and_drops_shadow():
    engine, space, vpn, fast, twin = promoted_page()
    repl = space.process.repl
    repl.update(vpn, P.pte_set_flag(repl.lookup(vpn), P.PTE_DIRTY))
    assert engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=1)) is MigrationOutcome.SUCCESS
    assert space.translate(vpn) != twin  # copied in full
    assert engine.stats.shadow_remaps == 0
    # The divergent shadow is dropped; its frame stays bound until teardown.
    assert engine.shadow.twins(a(fast)).tolist() == [-1]
    assert engine.shadow.stats.invalidated_by_write == 1
    assert engine.allocator.page(twin).state is PageState.SHADOW


def test_unshadowed_page_not_remap_demotable():
    s = ShadowTracker()
    assert s.twins(a(9)).tolist() == [-1]  # past the table
    s.retain(a(3), a(100))
    assert s.twins(a(0, 9)).tolist() == [-1, -1]
    assert s.twins(a()).tolist() == []


def test_disabled_tracker():
    s = ShadowTracker(enabled=False)
    assert s.twins(a(1)).tolist() == [-1]
    with pytest.raises(RuntimeError):
        s.retain(a(1), a(100))


def test_poison_pops_and_counts():
    # The twin is the slow tier's only frame.
    engine, space, vpn, fast, twin = promoted_page({"poisoned_shadow": 1.0}, slow=1)
    assert engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=1)) is MigrationOutcome.SUCCESS
    assert engine.shadow.stats.poisoned == 1
    assert engine.shadow.twins(a(fast)).tolist() == [-1]
    # The poisoned twin was freed at once and popped by the full copy.
    assert space.translate(vpn) == twin
    assert engine.stats.shadow_remaps == 0


def test_poison_of_unshadowed_page_is_none():
    engine, space, vpn, fast, twin = promoted_page({"poisoned_shadow": 1.0})
    engine.shadow.drop(a(fast))
    assert engine.migrate(MigrationRequest(pid=1, vpn=vpn, dest_tier=1)) is MigrationOutcome.SUCCESS
    # No twin, no poison roll: nothing fired and nothing was counted.
    assert engine.fault_injector.records == []
    assert engine.shadow.stats.poisoned == 0
