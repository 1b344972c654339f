"""Vulcan as a harness-pluggable policy.

Wires the :class:`repro.core.daemon.VulcanDaemon` behind the common
:class:`TieringPolicy` interface:

* processes run with per-thread page-table replication;
* engines run with both mechanism optimizations (scoped drain, scoped
  shootdown) and shadowing;
* profiling is the FlexMem-style hybrid (§3.2 default);
* each epoch's pooled FTHR sample feeds the QoS tracker (Eq. 1-2);
* each epoch's tick runs CBFRP and the biased migration policy.

The daemon manages the policy's own :class:`WorkloadRuntime` records,
so a QoS change needs no copying across.
"""

from __future__ import annotations

import numpy as np

from repro.core.daemon import VulcanDaemon
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
        self.daemon.attach(rt)

    def _on_unregister(self, rt: WorkloadRuntime) -> None:
        self.daemon.detach(rt.pid)

    def note_fast_capacity(self, online_pages: int) -> None:
        self.daemon.set_fast_capacity(online_pages)

    def _on_tier_samples(self, pid: int, fast: int, slow: int) -> None:
        qos = self.daemon.qos.workloads.get(pid)
        if qos is not None:
            qos.add_sample(fast, slow)

    def note_tier_latency(self, fast_loaded_cycles: float, slow_loaded_cycles: float) -> None:
        self._migrate_this_epoch = self.balancer.update(fast_loaded_cycles, slow_loaded_cycles)

    def _plan_and_migrate(self) -> None:
        self.daemon.tick(migrate=self._migrate_this_epoch)
        self._migrate_this_epoch = True  # default until next latency note

    # -- introspection for the Fig. 9 benches -------------------------------

    def fthr(self, pid: int) -> float:
        qos = self.daemon.qos.workloads.get(pid)
        return qos.fthr if qos is not None else 0.0

    def gpt(self, pid: int) -> float:
        qos = self.daemon.qos.workloads.get(pid)
        return qos.gpt if qos is not None else 0.0

    def quota(self, pid: int) -> int:
        return self.daemon.quotas.get(pid, 0)
