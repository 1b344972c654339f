"""The epoch-driven co-location simulator (DESIGN.md §4).

Each epoch (default 1 simulated second):

1. workloads whose start epoch arrived are admitted: a process is
   created (with or without page-table replication, per the policy),
   its threads pinned to a dedicated 8-core block, its RSS faulted in
   fast-first-with-fallback (Linux allocation order);
2. every active workload generates per-thread access batches; the
   batches update frame counters (ground truth), feed the policy's
   profiler, and produce FTHR samples;
3. the policy runs its end-of-epoch pass (profiler rollover + planned
   migrations through each workload's engine);
4. per-workload performance is computed from achieved memory latency:
   ``ops = Σ_threads usable_budget / cost_per_access`` where the cost
   folds tier latencies (bandwidth-loaded), a TLB-reach miss estimate,
   and the epoch's migration stalls / profiling faults charged to that
   workload.

Everything recorded lands in :class:`ExperimentResult` timeseries so
the figure benches can print exactly the series the paper plots.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, fields

import numpy as np

from repro.harness.jsonsafe import encode_nonfinite
from repro.machine.platform import Machine
from repro.mm.address_space import AddressSpace, Process
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer
from repro.policies import POLICY_REGISTRY
from repro.policies.base import TieringPolicy
from repro.sim.config import MachineConfig, SimulationConfig
from repro.sim.units import seconds_to_cycles
from repro.workloads.base import Workload

#: CPU work per access outside the memory system (address gen, compute).
CPU_WORK_PER_ACCESS_CYCLES = 60.0
#: Bytes touched per access for bandwidth-utilization purposes.
BYTES_PER_ACCESS = 64
#: Ground-truth hotness cut: accesses/epoch for a page to count "hot"
#: in the Fig. 1-style hot/cold accounting.
HOT_ACCESS_CUT = 8


@dataclass
class WorkloadTimeseries:
    """Everything recorded for one workload, one value per active epoch."""

    pid: int
    name: str
    epochs: list[int] = field(default_factory=list)
    ops: list[float] = field(default_factory=list)
    avg_access_cycles: list[float] = field(default_factory=list)
    fast_pages: list[int] = field(default_factory=list)
    rss_pages: list[int] = field(default_factory=list)
    fthr_true: list[float] = field(default_factory=list)
    hot_pages: list[int] = field(default_factory=list)
    hot_in_fast: list[int] = field(default_factory=list)
    cold_in_fast: list[int] = field(default_factory=list)
    promotions: list[int] = field(default_factory=list)
    demotions: list[int] = field(default_factory=list)
    stall_cycles: list[float] = field(default_factory=list)
    # Vulcan-only introspection (zeros elsewhere):
    fthr_policy: list[float] = field(default_factory=list)
    gpt: list[float] = field(default_factory=list)
    quota: list[int] = field(default_factory=list)

    @property
    def first_epoch(self) -> int:
        """First epoch this workload was active (late arrivals start late)."""
        return self.epochs[0] if self.epochs else -1

    @property
    def last_epoch(self) -> int:
        """Last active epoch (a departed workload's series ends early)."""
        return self.epochs[-1] if self.epochs else -1

    def aligned(self, name: str, n_epochs: int, fill: float = np.nan) -> np.ndarray:
        """One recorded series re-indexed onto the global epoch axis.

        Returns a float array of length ``n_epochs`` holding ``fill``
        (NaN by default) at epochs where this workload was absent —
        the gap-tolerant view the fairness metrics consume.
        """
        out = np.full(n_epochs, fill, dtype=np.float64)
        idx = np.asarray(self.epochs, dtype=np.int64)
        vals = np.asarray(getattr(self, name), dtype=np.float64)
        keep = (idx >= 0) & (idx < n_epochs)
        out[idx[keep]] = vals[keep]
        return out

    @property
    def hot_ratio(self) -> np.ndarray:
        """Fraction of this workload's hot pages resident in fast memory."""
        hot = np.asarray(self.hot_pages, dtype=np.float64)
        fast = np.asarray(self.hot_in_fast, dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(hot > 0, fast / hot, 0.0)
        return r

    def mean_ops(self, skip: int = 0) -> float:
        """Average achieved ops/epoch, optionally skipping warmup."""
        vals = self.ops[skip:]
        return float(np.mean(vals)) if vals else 0.0

    def to_dict(self) -> dict:
        """Plain-data form: what the goldens pin and JSON output prints.

        Every field is an int/float/str or a flat list thereof; Python's
        JSON encoder emits ``repr``-style shortest-round-trip floats.
        Non-finite floats (a NaN CI on a single sample, an inf latency)
        are carried as ``{"__float__": ...}`` markers so the payload is
        strict JSON, free of the non-standard ``NaN``/``Infinity``
        literals.
        """
        return {
            f.name: encode_nonfinite(v) if isinstance(v := getattr(self, f.name), list) else v
            for f in fields(self)
        }


@dataclass
class ExperimentResult:
    """Output of one :class:`ColocationExperiment` run."""

    policy_name: str
    n_epochs: int
    workloads: dict[int, WorkloadTimeseries] = field(default_factory=dict)
    free_fast_pages: list[int] = field(default_factory=list)
    migration_cycles: list[float] = field(default_factory=list)

    def by_name(self, name: str) -> WorkloadTimeseries:
        for ts in self.workloads.values():
            if ts.name == name:
                return ts
        raise KeyError(f"no workload named {name!r}")

    def to_dict(self) -> dict:
        """Plain-data form (see :meth:`WorkloadTimeseries.to_dict`).

        Workloads are keyed by stringified pid (JSON object keys are
        strings).
        """
        return {
            "policy_name": self.policy_name,
            "n_epochs": self.n_epochs,
            "free_fast_pages": list(self.free_fast_pages),
            "migration_cycles": encode_nonfinite([float(c) for c in self.migration_cycles]),
            "workloads": {str(pid): ts.to_dict() for pid, ts in self.workloads.items()},
        }


class ColocationExperiment:
    """Build a machine + policy + workloads and run the epoch loop."""

    def __init__(
        self,
        policy: str | TieringPolicy,
        workloads: list[Workload],
        *,
        machine_config: MachineConfig | None = None,
        sim: SimulationConfig | None = None,
        seed: int = 0,
        cores_per_workload: int = 8,
        policy_kwargs: dict | None = None,
    ) -> None:
        self.sim = sim if sim is not None else SimulationConfig()
        mc = machine_config if machine_config is not None else MachineConfig()
        self.machine = Machine(mc, page_size=self.sim.page_unit_bytes)
        self.allocator = FrameAllocator(
            fast_frames=self.machine.fast.total_frames,
            slow_frames=self.machine.slow.total_frames,
        )
        self.lru = LruSubsystem(n_cpus=mc.n_cores)
        if isinstance(policy, str):
            cls = POLICY_REGISTRY[policy]
            self.policy: TieringPolicy = cls(
                self.machine, self.allocator, self.lru, seed=seed, **(policy_kwargs or {})
            )
        else:
            self.policy = policy
        self.workload_defs = list(workloads)
        self.seed = seed
        self.cores_per_workload = cores_per_workload
        self._next_pid = 100
        self._active: dict[int, Workload] = {}
        self._spaces: dict[int, AddressSpace] = {}
        self._core_cursor = 0
        #: core blocks returned by departed workloads, lowest first
        self._free_core_blocks: list[int] = []
        #: pid -> base core of its dedicated block (for teardown return)
        self._core_base: dict[int, int] = {}
        self._pending: list[Workload] = []
        self.epoch_cycles = seconds_to_cycles(self.sim.epoch_seconds)

    # -- admission ---------------------------------------------------------------

    def _admit(self, wl: Workload, epoch: int) -> int:
        pid = self._next_pid
        self._next_pid += 1
        proc = Process(pid=pid, name=wl.name, replication_enabled=self.policy.replication_enabled)
        n_threads = wl.spec.n_threads
        if self._free_core_blocks:
            # Reuse the lowest departed block before growing the cursor.
            base_core = heapq.heappop(self._free_core_blocks)
        else:
            base_core = self._core_cursor
            if base_core + self.cores_per_workload > self.machine.cpu.n_cores:
                raise RuntimeError("out of dedicated core blocks for new workloads")
            self._core_cursor += self.cores_per_workload
        self._core_base[pid] = base_core
        core_map: dict[int, int] = {}
        for tid in range(n_threads):
            proc.spawn_thread(tid)
            core_map[tid] = base_core + (tid % self.cores_per_workload)

        vma = proc.mmap(wl.spec.rss_pages, name=f"{wl.name}-rss")
        wl.bind(pid, vma)  # bind first: first_touch_tids may need region layout
        space = AddressSpace(proc, self.allocator)
        # First touch sets PTE ownership (§3.4): the workload says which
        # thread faults each page in (its own shard vs shared structures).
        # Populate is all or nothing, so a failed admission strands no
        # frame, PTE or pagevec entry.
        tids = wl.first_touch_tids() % n_threads
        space.populate(vma, tids, prefer_tier=wl.spec.populate_tier)
        pfns = proc.repl.flat.pfn[proc.repl.flat.indices(vma.vpns())]
        cores = np.array([core_map[tid] for tid in range(n_threads)], dtype=np.int64)
        self.lru.add_pages(pfns, cores[tids])
        self.lru.drain(None)  # initial bulk drain, not charged to anyone

        # Rough per-page access rate for the transactional dirty model.
        total_rate = wl.spec.n_threads * wl.spec.accesses_per_thread
        rate_per_kcycle = total_rate / self.epoch_cycles * 1_000.0
        per_page_rate = rate_per_kcycle / max(wl.wss_pages(), 1)
        self.policy.register_workload(
            pid,
            wl.name,
            space,
            wl.service,
            core_map,
            access_rate_per_kcycle=per_page_rate * 1_000.0,  # hot pages are ~1000x mean
        )
        self._active[pid] = wl
        self._spaces[pid] = space
        return pid

    # -- teardown ----------------------------------------------------------------

    def _retire(self, pid: int, epoch: int, reason: str = "depart") -> dict[str, int]:
        """Full mid-run teardown of one workload (process exit).

        Order matters: the policy unregisters first (Vulcan detaches the
        pid from the daemon, so CBFRP re-partitions the freed credits on
        the very next epoch's pass), then every frame reference leaves
        the LRU pagevecs, then the allocator bulk-frees all frames the
        pid owns — mapped, mid-migration, and retained shadows alike —
        with its own no-leak/no-double-free invariant, and finally the
        dedicated core block returns to the reuse pool.

        Returns the allocator's per-state release counts.
        """
        if pid not in self._active:
            raise KeyError(f"pid {pid} is not active")
        wl = self._active.pop(pid)
        self._spaces.pop(pid)
        self.policy.unregister_workload(pid)
        pfns = self.allocator.store.owned_frames(pid)
        self.lru.forget_pages(pfns)
        counts = self.allocator.free_pid(pid)
        self.allocator.check_consistency()
        base_core = self._core_base.pop(pid)
        heapq.heappush(self._free_core_blocks, base_core)
        tracer = get_tracer()
        if tracer.enabled:
            tracer.emit(
                EventKind.WORKLOAD_DEPART,
                wl.name,
                pid=pid,
                args={"epoch": epoch, "reason": reason, "freed": counts},
            )
        return counts

    # -- the loop ----------------------------------------------------------------

    def run(self, n_epochs: int) -> ExperimentResult:
        result = ExperimentResult(policy_name=self.policy.name, n_epochs=n_epochs)
        self._pending = sorted(self.workload_defs, key=lambda w: w.spec.start_epoch)
        tracer = get_tracer()
        for epoch in range(n_epochs):
            self._step_epoch(result, epoch, tracer)
        self._finish_run(result)
        return result

    def _step_epoch(self, result: ExperimentResult, epoch: int, tracer) -> None:
        """One full epoch: admissions → events → traffic → policy → record."""
        # 1. admissions
        while self._pending and self._pending[0].spec.start_epoch <= epoch:
            self._admit(self._pending.pop(0), epoch)

        # 1b. scripted mid-run events (scenario engine hook; no-op here)
        self._apply_epoch_events(epoch)

        # Anchor the trace clock to the epoch boundary: migration
        # charges advance it within the epoch, deterministically.
        if tracer.enabled:
            tracer.set_time(epoch * self.epoch_cycles)
            tracer.emit(
                EventKind.EPOCH,
                "epoch",
                args={
                    "epoch": epoch,
                    "policy": self.policy.name,
                    "free_fast_pages": self.allocator.free_frames(0),
                    "workloads": {
                        str(pid): wl.name for pid, wl in self._active.items()
                    },
                },
            )

        # 2. traffic
        epoch_hits, epoch_issue = self._generate_traffic(epoch)

        # 3. policy pass (migrations), informed of loaded latencies
        utilization = self._tier_utilization(epoch_hits)
        self.policy.note_tier_latency(
            self.machine.fast.access_latency_cycles(utilization[0]),
            self.machine.slow.access_latency_cycles(utilization[1]) + self.machine.link.added_latency_cycles,
        )
        with tracer.span("policy_epoch", epoch=epoch):
            policy_result = self.policy.end_epoch()
        result.migration_cycles.append(policy_result.migration_cycles)

        # 4. record + performance
        for pid, wl in self._active.items():
            self._record_epoch(
                result, pid, wl, epoch, epoch_hits[pid], epoch_issue[pid],
                policy_result, utilization,
            )
        result.free_fast_pages.append(self.allocator.free_frames(0))
        self._reset_page_epoch_counters()

    def _generate_traffic(self, epoch: int) -> tuple[dict[int, tuple[int, int]], dict[int, float]]:
        """Drive every active workload's epoch traffic through the system:
        one :class:`~repro.profiling.base.EpochPlan` per workload goes to
        ``AddressSpace.record_plan`` and the policy's batched hooks."""
        epoch_hits: dict[int, tuple[int, int]] = {}
        epoch_issue: dict[int, float] = {}
        for pid, wl in self._active.items():
            issue, plan = wl.planned_epoch(epoch)
            epoch_issue[pid] = issue
            fast_seg, slow_seg = self._spaces[pid].record_plan(plan, cycle=epoch)
            self.policy.observe_plan(plan)
            self.policy.record_tier_samples(pid, fast_seg, slow_seg)
            epoch_hits[pid] = (int(fast_seg.sum()), int(slow_seg.sum()))
        return epoch_hits, epoch_issue

    def _apply_epoch_events(self, epoch: int) -> None:
        """Scenario hook: scripted mid-run events land here (default none)."""

    def _finish_run(self, result: ExperimentResult) -> None:
        """End-of-run hook (scenario engine adds final invariant checks)."""

    # -- helpers -------------------------------------------------------------------

    def _tier_utilization(self, epoch_hits: dict[int, tuple[int, int]]) -> tuple[float, float]:
        """Consumed/peak bandwidth per tier from this epoch's traffic."""
        fast_bytes = sum(f for f, _ in epoch_hits.values()) * BYTES_PER_ACCESS
        slow_bytes = sum(s for _, s in epoch_hits.values()) * BYTES_PER_ACCESS
        epoch_ns = self.sim.epoch_seconds * 1e9
        u_fast = (fast_bytes / epoch_ns) / self.machine.fast.config.bandwidth_gbps
        u_slow = (slow_bytes / epoch_ns) / self.machine.slow.config.bandwidth_gbps
        return (min(u_fast, 0.95), min(u_slow, 0.95))

    def _record_epoch(
        self,
        result: ExperimentResult,
        pid: int,
        wl: Workload,
        epoch: int,
        hits: tuple[int, int],
        issue_rate: float,
        policy_result,
        utilization: tuple[float, float],
    ) -> None:
        ts = result.workloads.get(pid)
        if ts is None:
            ts = WorkloadTimeseries(pid=pid, name=wl.name)
            result.workloads[pid] = ts

        fast_hits, slow_hits = hits
        total = fast_hits + slow_hits
        fthr = fast_hits / total if total else 0.0

        lat_fast = self.machine.fast.access_latency_cycles(utilization[0])
        lat_slow = self.machine.slow.access_latency_cycles(utilization[1]) + self.machine.link.added_latency_cycles
        avg_mem = (fast_hits * lat_fast + slow_hits * lat_slow) / total if total else lat_fast

        # TLB-reach miss estimate: WSS beyond reach pays a walk.
        reach = self.machine.config.tlb_entries
        wss = max(wl.wss_pages(), 1)
        tlb_miss_rate = max(0.0, 1.0 - reach / wss)
        tlb_pen = tlb_miss_rate * (self.machine.config.tlb_miss_penalty_ns * 3.0)

        cost = CPU_WORK_PER_ACCESS_CYCLES + avg_mem + tlb_pen

        n_threads = wl.spec.n_threads
        budget = self.epoch_cycles * issue_rate * n_threads
        stall = policy_result.stall_cycles.get(pid, 0.0)
        prof = policy_result.profiling_app_cycles.get(pid, 0.0)
        usable = max(budget - stall - prof, 0.0)
        ops = usable / cost if cost > 0 else 0.0

        hot_pages, hot_in_fast, cold_in_fast, fast_pages = self._ground_truth_hotness(pid)

        ts.epochs.append(epoch)
        ts.ops.append(ops)
        ts.avg_access_cycles.append(cost)
        ts.fast_pages.append(fast_pages)
        ts.rss_pages.append(self._spaces[pid].process.rss_pages)
        ts.fthr_true.append(fthr)
        ts.hot_pages.append(hot_pages)
        ts.hot_in_fast.append(hot_in_fast)
        ts.cold_in_fast.append(cold_in_fast)
        ts.promotions.append(policy_result.promotions.get(pid, 0))
        ts.demotions.append(policy_result.demotions.get(pid, 0))
        ts.stall_cycles.append(stall)

        # Vulcan introspection when available.
        fthr_p = getattr(self.policy, "fthr", None)
        ts.fthr_policy.append(float(fthr_p(pid)) if callable(fthr_p) else 0.0)
        gpt_p = getattr(self.policy, "gpt", None)
        ts.gpt.append(float(gpt_p(pid)) if callable(gpt_p) else 0.0)
        quota_p = getattr(self.policy, "quota", None)
        ts.quota.append(int(quota_p(pid)) if callable(quota_p) else 0)

    def _ground_truth_hotness(self, pid: int) -> tuple[int, int, int, int]:
        """(hot pages, hot∧fast, cold∧fast, fast pages) from frame counters."""
        return self.allocator.store.ground_truth_hotness(pid, HOT_ACCESS_CUT)

    def _reset_page_epoch_counters(self) -> None:
        # Touched-pfn reset: only frames accessed (or written to by a
        # migration) since the last reset are visited; idle pages cost
        # nothing.
        self.allocator.store.reset_epoch_counters()
