"""Vulcan as a harness-pluggable policy.

Wires the :class:`repro.core.daemon.VulcanDaemon` behind the common
:class:`TieringPolicy` interface:

* processes run with per-thread page-table replication;
* engines run with both mechanism optimizations (scoped drain, scoped
  shootdown) and shadowing;
* profiling is the FlexMem-style hybrid (§3.2 default);
* FTHR samples from the harness feed the QoS tracker (Eq. 1-2);
* each epoch's tick runs CBFRP and the biased migration policy.
"""

from __future__ import annotations

import numpy as np

from repro.core.daemon import VulcanDaemon, WorkloadHandle
from repro.mm.migration import OptimizationFlags
from repro.policies.base import TieringPolicy, WorkloadRuntime
from repro.profiling.base import Profiler
from repro.profiling.hybrid import HybridProfiler


class VulcanPolicy(TieringPolicy):
    """The paper's system, end to end."""

    name = "vulcan"
    replication_enabled = True
    engine_flags = OptimizationFlags(opt_prep=True, opt_tlb=True, prep_scope_cpus=2)

    def __init__(self, *args, colloid: bool = False, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.daemon = VulcanDaemon(
            self.allocator,
            fast_capacity_pages=self.allocator.tiers[0].total,
            rng=np.random.default_rng(self.rng.integers(2**63)),
        )
        self.last_report = None
        #: Colloid-style latency balancing (§3.6): suspend migration when
        #: the loaded fast tier stops being meaningfully faster.
        from repro.core.colloid import LatencyBalancer

        self.balancer = LatencyBalancer(enabled=colloid)
        self._migrate_this_epoch = True

    def _make_profiler(self, pid: int) -> Profiler:
        return HybridProfiler(
            period=64,
            window_fraction=0.0625,  # light poisoning: app pays for faults
            decay=0.5,
            rng=np.random.default_rng(self.rng.integers(2**63)),
        )

    def _uses_shadowing(self) -> bool:
        return True

    def _on_register(self, rt: WorkloadRuntime) -> None:
        assert isinstance(rt.profiler, HybridProfiler)
        rt.profiler.register_pages(rt.pid, rt.space.process.repl.flat.present_vpns())
        self.daemon.attach(
            WorkloadHandle(
                pid=rt.pid,
                name=rt.name,
                service=rt.service,
                space=rt.space,
                engine=rt.engine,
                profiler=rt.profiler,
                shadow=rt.shadow,
                access_rate_per_kcycle=rt.access_rate_per_kcycle,
            )
        )

    def _on_unregister(self, rt: WorkloadRuntime) -> None:
        self.daemon.detach(rt.pid)

    def _on_service_change(self, rt: WorkloadRuntime, old) -> None:
        # The daemon holds its own handle object; both views must agree
        # or CBFRP would keep partitioning under the stale class.
        handle = self.daemon.workloads.get(rt.pid)
        if handle is not None:
            handle.service = rt.service

    def note_fast_capacity(self, online_pages: int) -> None:
        self.daemon.set_fast_capacity(online_pages)

    def record_tier_sample(self, pid: int, fast: int, slow: int) -> None:
        super().record_tier_sample(pid, fast, slow)
        qos = self.daemon.qos.workloads.get(pid)
        if qos is not None:
            qos.add_sample(fast, slow)

    def note_tier_latency(self, fast_loaded_cycles: float, slow_loaded_cycles: float) -> None:
        self._migrate_this_epoch = self.balancer.update(fast_loaded_cycles, slow_loaded_cycles)

    def _plan_and_migrate(self) -> None:
        self.last_report = self.daemon.tick(migrate=self._migrate_this_epoch)
        self._migrate_this_epoch = True  # default until next latency note

    # -- introspection for the Fig. 9 benches -------------------------------

    def fthr(self, pid: int) -> float:
        qos = self.daemon.qos.workloads.get(pid)
        return qos.fthr if qos is not None else 0.0

    def gpt(self, pid: int) -> float:
        qos = self.daemon.qos.workloads.get(pid)
        return qos.gpt if qos is not None else 0.0

    def quota(self, pid: int) -> int:
        return self.daemon.partition.quotas.get(pid, 0)
