"""Table 1 — page promotion priority and strategy matrix.

Exercises the biased migration policy on a mixed page population and
verifies the observable contract of Table 1:

    private + read-intensive  → ★★★★  async copy
    shared  + read-intensive  → ★★★   async copy
    private + write-intensive → ★★    sync copy
    shared  + write-intensive → ★     sync copy

plus the MLFQ escape hatch for very hot low-class pages.
"""

import numpy as np
import pytest

from figutil import save_figure
from repro.core.bias import BiasedMigrationPolicy
from repro.core.classify import PageClass
from repro.metrics.reporting import render_table
from repro.mm.frame_alloc import FrameAllocator
from repro.profiling.base import AccessBatch
from repro.profiling.pebs import PebsProfiler
from tests.conftest import populated_space


def build_population():
    """16 slow-tier pages, four of each Table 1 class, equal heat."""
    alloc = FrameAllocator(fast_frames=4, slow_frames=64)
    space = populated_space(alloc, n_pages=20, n_threads=2)
    prof = PebsProfiler(period=1)
    start = space.process.vmas[0].start_vpn + 4  # skip the 4 fast pages
    classes = {}
    for i in range(16):
        vpn = start + i
        shared = i % 2 == 1
        write = i % 4 >= 2
        owner = 0
        batch = AccessBatch(
            pid=space.process.pid, tid=owner,
            vpns=np.full(30, vpn, dtype=np.int64),
            is_write=np.full(30, write, dtype=bool),
        )
        prof.observe(batch)
        space.process.repl.note_access(vpn, owner)
        if shared:
            space.process.repl.note_access(vpn, 1)
        classes[vpn] = (shared, write)
    return alloc, space, prof, classes


def _run_table1():
    alloc, space, prof, classes = build_population()
    policy = BiasedMigrationPolicy(hot_threshold=4.0)
    policy.refresh_candidates(space.process.pid, prof, space.process.repl, alloc)
    picks = policy.select_promotions(space.process.pid, 16, prof)
    return picks, classes


@pytest.fixture(scope="module")
def table1():
    return _run_table1()


def test_table1_benchmark(benchmark):
    benchmark.pedantic(_run_table1, rounds=1, iterations=1)


def served(picks):
    """(vpn, served class, sync) of each pick, in serve order."""
    return [
        (vpn, PageClass(c), sync)
        for vpn, c, sync in zip(picks.vpns.tolist(), picks.classes.tolist(), picks.sync.tolist())
    ]


def test_table1_rendering(table1):
    picks, classes = table1
    rows = []
    for order, (vpn, page_class, sync) in enumerate(served(picks)):
        shared, write = classes[vpn]
        rows.append([
            order,
            "shared" if shared else "private",
            "write-intensive" if write else "read-intensive",
            page_class.name,
            "★" * int(page_class),
            "sync" if sync else "async",
        ])
    save_figure(
        "table1",
        render_table(
            ["service_order", "ownership", "pattern", "class", "priority", "copy"],
            rows,
            title="Table 1 — promotion priority and strategy (as served by the queues)",
        ),
    )


def test_table1_classification_correct(table1):
    picks, classes = table1
    assert len(picks) == 16
    for vpn, page_class, _ in served(picks):
        shared, write = classes[vpn]
        assert page_class.is_private == (not shared)
        assert page_class.is_write_intensive == write


def test_table1_strategy_column(table1):
    picks, _ = table1
    for _, page_class, sync in served(picks):
        assert sync == (not page_class.use_async_copy)


def test_table1_service_order(table1):
    """At equal heat, service order is exactly the star order."""
    picks, _ = table1
    served_classes = [page_class for _, page_class, _ in served(picks)]
    expected = (
        [PageClass.PRIVATE_READ] * 4
        + [PageClass.SHARED_READ] * 4
        + [PageClass.PRIVATE_WRITE] * 4
        + [PageClass.SHARED_WRITE] * 4
    )
    assert served_classes == expected


def test_table1_mlfq_rescues_scalding_low_class_page():
    alloc, space, prof, classes = build_population()
    policy = BiasedMigrationPolicy(hot_threshold=4.0, boost_factor=2.0)
    # One shared-write page is 100x hotter than everything else.
    hot_vpn = max(vpn for vpn, (sh, wr) in classes.items() if sh and wr)
    batch = AccessBatch(
        pid=space.process.pid, tid=0,
        vpns=np.full(3000, hot_vpn, dtype=np.int64),
        is_write=np.ones(3000, dtype=bool),
    )
    prof.observe(batch)
    policy.refresh_candidates(space.process.pid, prof, space.process.repl, alloc)
    picks = policy.select_promotions(space.process.pid, 16, prof)
    position = picks.vpns.tolist().index(hot_vpn)
    assert position < 12, "MLFQ must lift the scalding page above its base class"
