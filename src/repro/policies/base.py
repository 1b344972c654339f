"""The policy interface the co-location harness drives.

Lifecycle per experiment::

    policy = SomePolicy(machine, allocator, lru, seed=...)
    rt = policy.register_workload(pid, name, space, service, core_map, ...)
    # each epoch:
    policy.observe_plan(plan)        # each workload's epoch traffic
    policy.record_tier_samples(...)  # its per-thread fast/slow hits
    result = policy.end_epoch()      # policy migrates; harness reads result

Each workload gets its *own* :class:`MigrationEngine` so stall cycles
are attributable per workload; whether that engine runs with Vulcan's
mechanism optimizations is a class attribute each policy sets
(baselines pay the global-drain / process-wide-shootdown costs).  The
workload's :class:`WorkloadRuntime` is the one record of it in the
policy layer: Vulcan's daemon manages the same objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classify import ServiceClass
from repro.machine.platform import Machine
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import MigrationEngine, OptimizationFlags
from repro.mm.shadow import ShadowTracker
from repro.profiling.base import EpochPlan, Profiler


@dataclass
class WorkloadRuntime:
    """Per-workload state a policy holds."""

    pid: int
    name: str
    service: ServiceClass
    space: AddressSpace
    engine: MigrationEngine
    profiler: Profiler
    thread_core_map: dict[int, int]
    shadow: ShadowTracker | None = None
    access_rate_per_kcycle: float = 0.0
    #: engine and profiler totals at the last end_epoch, for its deltas
    prev_stall: float = 0.0
    prev_migration_cycles: float = 0.0
    prev_app_overhead: float = 0.0


@dataclass
class EpochResult:
    """What a policy did during one epoch."""

    promotions: dict[int, int] = field(default_factory=dict)
    demotions: dict[int, int] = field(default_factory=dict)
    #: stall cycles newly charged to each workload this epoch
    stall_cycles: dict[int, float] = field(default_factory=dict)
    #: total migration CPU cycles spent this epoch (system-wide)
    migration_cycles: float = 0.0
    #: app-side profiling overhead charged this epoch (hint faults)
    profiling_app_cycles: dict[int, float] = field(default_factory=dict)


class TieringPolicy:
    """Base class; subclasses override the hooks marked below."""

    #: registry/reporting name
    name = "abstract"
    #: whether processes run with per-thread page-table replication
    replication_enabled = False
    #: migration-engine optimization flags for this policy's engines
    engine_flags = OptimizationFlags(opt_prep=False, opt_tlb=False)

    def __init__(
        self,
        machine: Machine,
        allocator: FrameAllocator,
        lru: LruSubsystem,
        *,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.allocator = allocator
        self.lru = lru
        self.rng = np.random.default_rng(seed)
        self.workloads: dict[int, WorkloadRuntime] = {}

    # -- hooks subclasses implement ----------------------------------------

    def _make_profiler(self, pid: int) -> Profiler:
        """Profiling mechanism for a new workload (policy-specific)."""
        raise NotImplementedError

    def _uses_shadowing(self) -> bool:
        return False

    def _plan_and_migrate(self) -> None:
        """Select and execute this epoch's migrations."""
        raise NotImplementedError

    # -- common lifecycle -----------------------------------------------------

    def register_workload(
        self,
        pid: int,
        name: str,
        space: AddressSpace,
        service: ServiceClass,
        thread_core_map: dict[int, int],
        *,
        access_rate_per_kcycle: float = 0.0,
    ) -> WorkloadRuntime:
        if pid in self.workloads:
            raise ValueError(f"pid {pid} already registered")
        shadow = ShadowTracker() if self._uses_shadowing() else None
        engine = MigrationEngine(
            self.machine,
            self.allocator,
            space,
            self.lru,
            flags=self.engine_flags,
            thread_core_map=thread_core_map,
            shadow=shadow,
            rng=np.random.default_rng(self.rng.integers(2**63)),
        )
        rt = WorkloadRuntime(
            pid=pid,
            name=name,
            service=service,
            space=space,
            engine=engine,
            profiler=self._make_profiler(pid),
            thread_core_map=thread_core_map,
            shadow=shadow,
            access_rate_per_kcycle=access_rate_per_kcycle,
        )
        self.workloads[pid] = rt
        self._on_register(rt)
        return rt

    def _on_register(self, rt: WorkloadRuntime) -> None:
        """Extra registration work (subclass hook, default none)."""

    def unregister_workload(self, pid: int) -> None:
        rt = self.workloads.pop(pid, None)
        if rt is not None:
            rt.profiler.forget(pid)
            self._on_unregister(rt)

    def _on_unregister(self, rt: WorkloadRuntime) -> None:
        """Subclass hook."""

    def update_service(self, pid: int, service: ServiceClass) -> ServiceClass:
        """QoS change on a live workload; returns the old class."""
        rt = self.workloads.get(pid)
        if rt is None:
            raise KeyError(f"pid {pid} not registered")
        old = rt.service
        rt.service = service
        return old

    def note_fast_capacity(self, online_pages: int) -> None:
        """Capacity event: online fast-tier pages changed (harness hook).

        Base policies need nothing — they allocate against free-frame
        watermarks, which already reflect offlined frames.  Vulcan
        re-derives GPTs and the CBFRP partition base.
        """

    def observe_plan(self, plan: EpochPlan) -> None:
        """Feed one process's whole epoch to its profiler."""
        rt = self.workloads.get(plan.pid)
        if rt is None:
            return
        rt.profiler.observe_plan(plan)

    def note_tier_latency(self, fast_loaded_cycles: float, slow_loaded_cycles: float) -> None:
        """Observed loaded latencies this epoch (harness hook).

        Base policies ignore it; latency-aware extensions (the Colloid
        integration in :class:`VulcanPolicy`) use it to suspend
        migration when the fast tier stops being meaningfully faster.
        """

    def record_tier_samples(self, pid: int, fast: np.ndarray, slow: np.ndarray) -> None:
        """One epoch's per-thread fast and slow hit counts for ``pid``.

        Eq. 1 pools the samples, so the hook sees one (fast, slow) total.
        """
        self._on_tier_samples(pid, sum(fast.tolist()), sum(slow.tolist()))

    def _on_tier_samples(self, pid: int, fast: int, slow: int) -> None:
        """Subclass hook: the epoch's pooled FTHR sample (default none)."""

    def end_epoch(self) -> EpochResult:
        """Close the epoch: profilers roll over, migrations run."""
        result = EpochResult()
        promos_before = {pid: rt.engine.stats.promotions for pid, rt in self.workloads.items()}
        demos_before = {pid: rt.engine.stats.demotions for pid, rt in self.workloads.items()}

        for rt in self.workloads.values():
            rt.profiler.end_epoch()
        self._plan_and_migrate()

        for pid, rt in self.workloads.items():
            result.promotions[pid] = rt.engine.stats.promotions - promos_before.get(pid, 0)
            result.demotions[pid] = rt.engine.stats.demotions - demos_before.get(pid, 0)
            stall = rt.engine.stats.stall_cycles
            result.stall_cycles[pid] = stall - rt.prev_stall
            rt.prev_stall = stall
            total = rt.engine.stats.total_cycles
            result.migration_cycles += total - rt.prev_migration_cycles
            rt.prev_migration_cycles = total
            app_ov = rt.profiler.stats.app_overhead_cycles
            result.profiling_app_cycles[pid] = app_ov - rt.prev_app_overhead
            rt.prev_app_overhead = app_ov
        return result
