"""Figure 7 — speedup of Vulcan's migration-mechanism optimizations.

Sync migrations of 2..512 pages on the 32-CPU machine, comparing the
baseline mechanism against (i) optimized preparation (scoped LRU drain)
and (ii) preparation + TLB-shootdown optimization (per-thread page
tables → single-target shootdowns for private pages).

Paper anchors: up to 3.44× with optimized preparation alone and 4.06×
with both, at 2-page migrations; benefits shrink as batches grow.
"""

import pytest

from figutil import save_figure
from repro.machine.platform import Machine
from repro.metrics.reporting import render_series, render_table
from repro.mm.address_space import AddressSpace, Process
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, MigrationRequest, OptimizationFlags
from repro.mm.migration_costs import MigrationCostModel
from repro.sim.config import paper_machine_config

PAGE_COUNTS = (2, 8, 32, 128, 512)
N_CPUS = 32


def engine_cycles(n_pages: int, flags: OptimizationFlags) -> float:
    """Cost of one real batched promotion under the given flags."""
    machine = Machine(paper_machine_config(N_CPUS))
    alloc = FrameAllocator(fast_frames=2048, slow_frames=8192)
    lru = LruSubsystem(n_cpus=N_CPUS)
    proc = Process(pid=1, name="fig7", replication_enabled=True)
    core_map = {}
    for tid in range(N_CPUS):
        proc.spawn_thread(tid)
        core_map[tid] = tid
    vma = proc.mmap(n_pages)
    space = AddressSpace(proc, alloc)
    for i, vpn in enumerate(range(vma.start_vpn, vma.end_vpn)):
        space.fault(vpn, tid=0, prefer_tier=1)  # private to thread 0
    engine = MigrationEngine(machine, alloc, space, lru, flags=flags, thread_core_map=core_map)
    reqs = [MigrationRequest(pid=1, vpn=v, dest_tier=0, sync=True) for v in range(vma.start_vpn, vma.end_vpn)]
    engine.migrate_batch(reqs)
    return engine.stats.total_cycles


def _run_fig7():
    """Speedups from the calibrated model (exact), cross-checked below
    against the structural engine."""
    model = MigrationCostModel()
    rows = []
    for p in PAGE_COUNTS:
        base = model.batch_total_cycles(p, N_CPUS, N_CPUS)
        prep_opt = model.batch_total_cycles(p, N_CPUS, N_CPUS, opt_prep=True)
        both = model.batch_total_cycles(p, N_CPUS, N_CPUS, opt_prep=True, opt_tlb_target_cpus=1)
        rows.append([p, base, base / prep_opt, base / both])
    return rows


@pytest.fixture(scope="module")
def fig7_rows():
    return _run_fig7()


def test_fig7_benchmark(benchmark):
    benchmark.pedantic(_run_fig7, rounds=1, iterations=1)


def test_fig7_table(fig7_rows):
    text = render_table(
        ["pages", "baseline_cycles", "speedup_prep_opt", "speedup_prep_tlb_opt"],
        fig7_rows,
        title="Fig 7 — migration optimization speedups (higher is better)",
    )
    series = render_series(
        "speedup with both optimizations",
        [r[0] for r in fig7_rows],
        [r[3] for r in fig7_rows],
    )
    save_figure("fig7", text + "\n\n" + series)


def test_fig7_anchor_speedups_at_2_pages(fig7_rows):
    two = fig7_rows[0]
    assert two[2] == pytest.approx(3.44, abs=0.01)
    assert two[3] == pytest.approx(4.06, abs=0.01)


def test_fig7_benefits_decrease_with_size(fig7_rows):
    s_prep = [r[2] for r in fig7_rows]
    s_both = [r[3] for r in fig7_rows]
    assert s_prep == sorted(s_prep, reverse=True)
    assert s_both == sorted(s_both, reverse=True)
    assert s_both[-1] > 1.0


def test_fig7_structural_engine_ordering():
    """The live engine (real drains, real shootdowns on real page
    tables) must show the same ordering the model predicts."""
    p = 8
    base = engine_cycles(p, OptimizationFlags())
    prep = engine_cycles(p, OptimizationFlags(opt_prep=True))
    both = engine_cycles(p, OptimizationFlags(opt_prep=True, opt_tlb=True))
    assert base > prep > both
