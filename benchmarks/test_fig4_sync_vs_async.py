"""Figure 4 — synchronous vs asynchronous (transactional) page copying
for hot-page promotion across read:write ratios.

The microbenchmark promotes a single hot base page while the application
keeps accessing it with write fraction ``w``.  The score is achieved
accesses over a fixed window, accounting for (i) stall cycles the
migration imposes, and (ii) how long the page stays on the slow tier
before the promotion commits (async retries delay it).

Paper anchors: async wins for read-intensive access, sync wins for
write-intensive access, with a crossover in between.
"""

import numpy as np
import pytest

from figutil import save_figure
from repro.machine.platform import Machine
from repro.metrics.reporting import render_table
from repro.mm.address_space import AddressSpace, Process
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, MigrationOutcome, MigrationRequest, OptimizationFlags
from repro.mm.migration_costs import MigrationCostModel
from repro.sim.config import paper_machine_config
from repro.sim.units import ns_to_cycles

WRITE_FRACTIONS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
WINDOW_CYCLES = 1_200_000.0
#: Hot-page access rate chosen so a copy window sees O(1) writes at
#: mid write-fractions — the regime where the sync/async trade-off is
#: actually interesting (0 writes → async trivially wins; >>1 → async
#: always aborts).
ACCESS_RATE_PER_KCYCLE = 0.08
TRIALS = 40

FAST_COST = ns_to_cycles(70.0)
SLOW_COST = ns_to_cycles(162.0 + 90.0)


def one_migration(sync: bool, write_fraction: float, seed: int):
    machine = Machine(paper_machine_config(8))
    alloc = FrameAllocator(fast_frames=64, slow_frames=256)
    lru = LruSubsystem(n_cpus=8)
    proc = Process(pid=1, name="fig4", replication_enabled=True)
    proc.spawn_thread(0)
    machine.cpu.schedule_thread(0, 0)
    vma = proc.mmap(1)
    space = AddressSpace(proc, alloc)
    space.fault(vma.start_vpn, tid=0, prefer_tier=1)
    engine = MigrationEngine(
        machine, alloc, space, lru,
        flags=OptimizationFlags(opt_prep=True, opt_tlb=True),
        thread_core_map={0: 0},
        rng=np.random.default_rng(seed),
    )
    out = engine.migrate(
        MigrationRequest(
            pid=1, vpn=vma.start_vpn, dest_tier=0, sync=sync,
            write_fraction=write_fraction,
            access_rate_per_kcycle=ACCESS_RATE_PER_KCYCLE,
        )
    )
    return engine.stats, out


def throughput_score(sync: bool, write_fraction: float, seed: int) -> float:
    """Accesses completed in the window around one promotion."""
    stats, out = one_migration(sync, write_fraction, seed)
    model = MigrationCostModel()
    copy = model.batch_copy_cycles(1)
    # Time until the page actually runs from the fast tier.
    if sync:
        t_promote = stats.total_cycles
    else:
        t_promote = (stats.retries + 1) * copy + stats.stall_cycles
        if out is MigrationOutcome.FELL_BACK_SYNC:
            t_promote += copy
    t_promote = min(t_promote, WINDOW_CYCLES)
    stall = min(stats.stall_cycles, WINDOW_CYCLES)
    avg_cost = (t_promote * SLOW_COST + (WINDOW_CYCLES - t_promote) * FAST_COST) / WINDOW_CYCLES
    usable = WINDOW_CYCLES - stall
    return usable / avg_cost


def _run_fig4():
    rows = []
    for w in WRITE_FRACTIONS:
        sync_scores = [throughput_score(True, w, s) for s in range(TRIALS)]
        async_scores = [throughput_score(False, w, s) for s in range(TRIALS)]
        rows.append([
            f"{int((1 - w) * 100)}:{int(w * 100)}",
            float(np.mean(sync_scores)),
            float(np.mean(async_scores)),
            w,
        ])
    return rows


@pytest.fixture(scope="module")
def fig4_rows():
    return _run_fig4()


def test_fig4_benchmark(benchmark):
    benchmark.pedantic(_run_fig4, rounds=1, iterations=1)


def test_fig4_table(fig4_rows):
    text = render_table(
        ["read:write", "sync_ops", "async_ops", "write_fraction"],
        [[r[0], r[1], r[2], f"{r[3]:.2f}"] for r in fig4_rows],
        title="Fig 4 — sync vs async copying across read:write ratios (higher is better)",
        float_fmt="{:.0f}",
    )
    save_figure("fig4", text)


def test_fig4_async_wins_read_intensive(fig4_rows):
    pure_read = fig4_rows[0]
    assert pure_read[2] > pure_read[1], "async must win at 100:0 read:write"


def test_fig4_sync_wins_write_intensive(fig4_rows):
    pure_write = fig4_rows[-1]
    assert pure_write[1] > pure_write[2], "sync must win at 0:100 read:write"


def test_fig4_crossover_exists(fig4_rows):
    advantage = [r[2] - r[1] for r in fig4_rows]  # async minus sync
    assert advantage[0] > 0 and advantage[-1] < 0
    # Advantage decreases (weakly) as writes increase.
    sign_changes = sum(
        1 for a, b in zip(advantage, advantage[1:]) if (a > 0) != (b > 0)
    )
    assert sign_changes == 1, f"expected one crossover, advantages={advantage}"
