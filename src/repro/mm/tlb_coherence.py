"""TLB shootdown scope computation.

A page migration must guarantee no core keeps a stale translation.  The
conservative kernel behaviour IPIs every core running *any* thread of
the process.  Vulcan's per-thread tables shrink the target set to the
cores running threads that can actually cache the entry (paper insight
#3): the PTE owner for private pages, the leaf-linked threads for shared
pages.

This module turns a page's ownership state plus the core scheduling map
into the concrete list of cores to IPI, and performs the invalidation on
the structural TLBs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machine.cpu import CpuComplex
from repro.mm.replication import ReplicatedPageTables
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class ShootdownScope:
    """Resolved shootdown target set for one page (or batch)."""

    vpn: int
    target_core_ids: tuple[int, ...]
    sharing_tids: tuple[int, ...]
    process_wide: bool

    @property
    def n_targets(self) -> int:
        return len(self.target_core_ids)


def compute_scope(
    repl: ReplicatedPageTables,
    cpu: CpuComplex,
    vpn: int,
    *,
    thread_core_map: dict[int, int] | None = None,
    initiator_core: int | None = None,
) -> ShootdownScope:
    """Compute the core set that must receive an invalidation IPI.

    Parameters
    ----------
    repl:
        The process's (possibly replicated) page tables.
    cpu:
        The core complex (for the thread→core schedule).
    vpn:
        The page being remapped.
    thread_core_map:
        Optional explicit local-tid→core pinning (the harness pins 8
        threads per app).  When absent, the live schedule on ``cpu`` is
        consulted; core.thread_id must then hold *local* tids.
    initiator_core:
        The core driving the migration; it flushes its own TLB locally
        and is excluded from the IPI list, as in the kernel.
    """
    tids = repl.sharing_tids(vpn)
    if thread_core_map is not None:
        cores = sorted({thread_core_map[t] for t in tids if t in thread_core_map})
    else:
        cores = sorted({c.core_id for c in cpu.cores_running(tids)})
    if initiator_core is not None and initiator_core in cores:
        cores.remove(initiator_core)
    return ShootdownScope(
        vpn=vpn,
        target_core_ids=tuple(cores),
        sharing_tids=tuple(sorted(tids)),
        process_wide=not repl.enabled,
    )


def execute_shootdown(cpu: CpuComplex, scope: ShootdownScope, *, initiator_core: int | None = None) -> int:
    """Deliver the IPIs and invalidate the structural TLB entries.

    Returns the cycle cost charged to the initiator (IPI machinery only;
    phase-level costs come from :mod:`repro.mm.migration_costs`).
    """
    cost = cpu.deliver_ipis(list(scope.target_core_ids))
    for core_id in scope.target_core_ids:
        cpu.core(core_id).tlb.invalidate(scope.vpn)
    if initiator_core is not None:
        cpu.core(initiator_core).tlb.invalidate(scope.vpn)
    if get_tracer().enabled:
        trace_shootdown(scope.vpn, scope.n_targets, scope.process_wide, cost)
    return cost


def trace_shootdown(vpn: int, n_targets: int, process_wide: bool, ipi_cycles: int) -> None:
    """Record one delivered shootdown as an event and in the metrics
    (callers check ``tracer.enabled`` first)."""
    tracer = get_tracer()
    tracer.emit(
        EventKind.TLB_SHOOTDOWN,
        "shootdown",
        args={
            "vpn": vpn,
            "n_targets": n_targets,
            "process_wide": process_wide,
            "ipi_cycles": ipi_cycles,
        },
    )
    tracer.metrics.histogram("shootdown_scope_cores").observe(n_targets)
    tracer.metrics.counter(
        "shootdowns", scope="process_wide" if process_wide else "scoped"
    ).inc()
