"""Scripted-timeline experiment driver (DESIGN.md §scenario).

:class:`ScenarioExperiment` extends the epoch loop of
:class:`~repro.harness.experiment.ColocationExperiment` with a scripted
event schedule: at the start of each epoch — after admissions, before
traffic and the policy pass — every event stamped with that epoch is
dispatched.  Departures therefore free their frames and detach from the
policy *before* the same epoch's CBFRP run, so credits re-partition
within one epoch of a departure (the acceptance invariant the tests
pin).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.core.classify import ServiceClass
from repro.fuzz.oracle import InvariantOracle
from repro.harness.experiment import ColocationExperiment, ExperimentResult
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer
from repro.scenario.faults import FaultInjector
from repro.scenario.spec import ScenarioSpec, WorkloadDef
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.pagerank import PageRankWorkload

KIND_CLASSES: dict[str, type[Workload]] = {
    "memcached": MemcachedWorkload,
    "pagerank": PageRankWorkload,
    "liblinear": LiblinearWorkload,
    "microbench": MicrobenchWorkload,
}


def _instance_seed(d: WorkloadDef, base_seed: int, generation: int) -> int:
    """Deterministic per-(key, generation) workload seed.

    A restarted workload is a *new* process: it must not replay the
    departed instance's layout, but the same (spec, seed, generation)
    must always produce the same instance.
    """
    h = zlib.crc32(f"{d.key}/{generation}".encode())
    return (base_seed * 0x9E3779B1 + h) % (2**31)


def build_workload(d: WorkloadDef, base_seed: int, generation: int = 0) -> Workload:
    """Instantiate one scenario workload (generation > 0 = restart)."""
    cls = KIND_CLASSES[d.kind]
    spec = WorkloadSpec(
        name=d.key,
        service=ServiceClass[d.service],
        rss_pages=d.rss_pages,
        n_threads=d.n_threads,
        start_epoch=d.start_epoch,
        accesses_per_thread=d.accesses_per_thread,
        populate_tier=d.populate_tier,
    )
    wl = cls(spec, seed=_instance_seed(d, base_seed, generation), **dict(d.params))
    wl.scenario_key = d.key
    wl.scenario_generation = generation
    return wl


@dataclass
class ScenarioResult:
    """Everything a scenario run produced, beyond the base result.

    Kept *separate* from :class:`ExperimentResult` on purpose: the base
    result's serialized form is pinned bit-for-bit by the golden tests,
    so scenario-only records must not widen it.
    """

    spec_name: str
    spec_hash: str
    policy: str
    seed: int
    result: ExperimentResult
    departures: list[dict] = field(default_factory=list)
    restarts: list[dict] = field(default_factory=list)
    phase_shifts: list[dict] = field(default_factory=list)
    qos_changes: list[dict] = field(default_factory=list)
    capacity_events: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    #: one entry per teardown; ``consistent`` is True because _retire
    #: raises on any leak — recorded so goldens prove the check ran
    leak_checks: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Deterministic plain-data form (no wall-clock anywhere)."""
        return {
            "spec_name": self.spec_name,
            "spec_hash": self.spec_hash,
            "policy": self.policy,
            "seed": self.seed,
            "departures": list(self.departures),
            "restarts": list(self.restarts),
            "phase_shifts": list(self.phase_shifts),
            "qos_changes": list(self.qos_changes),
            "capacity_events": list(self.capacity_events),
            "faults": list(self.faults),
            "leak_checks": list(self.leak_checks),
            "result": self.result.to_dict(),
        }

    def summary(self) -> dict:
        """Headline numbers for the CLI table / --check assertions."""
        # Keyed by pid (stringified): a restarted workload shares its
        # name with the departed instance but is a distinct process.
        per_wl = {
            str(pid): {
                "name": ts.name,
                "epochs": len(ts.epochs),
                "first_epoch": ts.first_epoch,
                "last_epoch": ts.last_epoch,
                "mean_ops": ts.mean_ops(),
            }
            for pid, ts in sorted(self.result.workloads.items())
        }
        return {
            "scenario": self.spec_name,
            "policy": self.policy,
            "seed": self.seed,
            "n_epochs": self.result.n_epochs,
            "departures": len(self.departures),
            "restarts": len(self.restarts),
            "phase_shifts": len(self.phase_shifts),
            "qos_changes": len(self.qos_changes),
            "capacity_events": len(self.capacity_events),
            "faults_fired": len(self.faults),
            "leak_checks_passed": len(self.leak_checks),
            "workloads": per_wl,
        }


class ScenarioExperiment(ColocationExperiment):
    """A colocation experiment driven by a :class:`ScenarioSpec`."""

    def __init__(
        self,
        spec: ScenarioSpec,
        *,
        seed: int | None = None,
        policy: str | None = None,
        oracle: InvariantOracle | None = None,
        **kwargs,
    ) -> None:
        spec.validate()
        self.spec = spec
        #: optional per-epoch invariant battery (fuzzer / --check); the
        #: oracle is read-only so attaching one never perturbs the run
        self.oracle = oracle
        run_seed = spec.seed if seed is None else seed
        self._defs = {d.key: d for d in spec.workloads}
        self._gen = {d.key: 0 for d in spec.workloads}
        self._pid_of: dict[str, int | None] = {d.key: None for d in spec.workloads}
        initial = [build_workload(d, run_seed, 0) for d in spec.workloads]
        super().__init__(
            policy if policy is not None else spec.policy,
            initial,
            seed=run_seed,
            **kwargs,
        )
        # Fault randomness rides its own stream so arming/disarming
        # faults never shifts workload or policy RNG state.
        self.injector = FaultInjector(seed=(run_seed * 0x5DEECE66D + 0xB) % (2**31))
        self._events_by_epoch: dict[int, list] = {}
        for ev in sorted(spec.events, key=lambda e: e.epoch):
            self._events_by_epoch.setdefault(ev.epoch, []).append(ev)
        self.scenario_result: ScenarioResult | None = None

    # -- lifecycle overrides ------------------------------------------------

    def _admit(self, wl: Workload, epoch: int) -> int:
        pid = super()._admit(wl, epoch)
        key = getattr(wl, "scenario_key", None)
        if key is not None:
            self._pid_of[key] = pid
        self.policy.workloads[pid].engine.fault_injector = self.injector
        return pid

    def _apply_epoch_events(self, epoch: int) -> None:
        self.injector.epoch = epoch
        events = self._events_by_epoch.get(epoch)
        if not events:
            return
        tracer = get_tracer()
        if tracer.enabled:
            # The base loop anchors the trace clock after this hook;
            # anchor it here too so scenario events timestamp correctly.
            tracer.set_time(epoch * self.epoch_cycles)
        for ev in events:
            self._dispatch(ev, epoch, tracer)

    def _step_epoch(self, result: ExperimentResult, epoch: int, tracer) -> None:
        super()._step_epoch(result, epoch, tracer)
        if self.oracle is not None:
            self.oracle.check_epoch(self, epoch)

    def _finish_run(self, result: ExperimentResult) -> None:
        # Teardown checks always run, oracle or not; with an oracle the
        # full battery (leaks, credits, caps, heat books, metric ranges)
        # replaces these two ad-hoc asserts and runs after the result is
        # assembled below.
        if self.oracle is None:
            from repro.fuzz.oracle import check_frame_conservation, check_store_rows

            check_frame_conservation(self.allocator)
            check_store_rows(self.allocator.store)
        self.scenario_result = ScenarioResult(
            spec_name=self.spec.name,
            spec_hash=self.spec.content_hash(),
            policy=self.policy.name,
            seed=self.seed,
            result=result,
            departures=self._departures,
            restarts=self._restarts,
            phase_shifts=self._phase_shifts,
            qos_changes=self._qos_changes,
            capacity_events=self._capacity_events,
            faults=list(self.injector.records),
            leak_checks=self._leak_checks,
        )
        if self.oracle is not None:
            self.oracle.check_final(self, result)

    # -- event dispatch ------------------------------------------------------

    _departures: list
    _restarts: list
    _phase_shifts: list
    _qos_changes: list
    _capacity_events: list
    _leak_checks: list

    def run(self, n_epochs: int | None = None) -> ExperimentResult:
        if n_epochs is not None and n_epochs != self.spec.n_epochs:
            # A shorter horizon would silently drop scripted events (the
            # epoch loop just never reaches them) — fail loudly instead.
            self.spec.check_horizon(n_epochs)
        self._departures = []
        self._restarts = []
        self._phase_shifts = []
        self._qos_changes = []
        self._capacity_events = []
        self._leak_checks = []
        return super().run(self.spec.n_epochs if n_epochs is None else n_epochs)

    def _live_pid(self, ev) -> int:
        pid = self._pid_of.get(ev.target)
        if pid is None:
            raise RuntimeError(f"event @{ev.epoch} {ev.action}: {ev.target!r} is not live")
        return pid

    def _dispatch(self, ev, epoch: int, tracer) -> None:
        handler = getattr(self, f"_ev_{ev.action}")
        handler(ev, epoch, tracer)

    def _ev_depart(self, ev, epoch: int, tracer) -> None:
        pid = self._live_pid(ev)
        counts = self._retire(pid, epoch, reason=ev.params.get("reason", "depart"))
        self._pid_of[ev.target] = None
        self._departures.append({"epoch": epoch, "key": ev.target, "pid": pid, "freed": counts})
        self._leak_checks.append(
            {"epoch": epoch, "pid": pid, "freed_total": sum(counts[k] for k in ("fast", "slow")), "consistent": True}
        )

    def _ev_restart(self, ev, epoch: int, tracer) -> None:
        self._gen[ev.target] += 1
        generation = self._gen[ev.target]
        wl = build_workload(self._defs[ev.target], self.seed, generation)
        pid = self._admit(wl, epoch)
        self._restarts.append({"epoch": epoch, "key": ev.target, "pid": pid, "generation": generation})
        if tracer.enabled:
            tracer.emit(
                EventKind.WORKLOAD_RESTART,
                ev.target,
                pid=pid,
                args={"epoch": epoch, "generation": generation},
            )

    def _ev_phase_shift(self, ev, epoch: int, tracer) -> None:
        pid = self._live_pid(ev)
        wl = self._active[pid]
        wl.reshape(attrs=ev.params.get("attrs"), reseed=ev.params.get("reseed"))
        self._phase_shifts.append({"epoch": epoch, "key": ev.target, "pid": pid, "params": dict(ev.params)})
        if tracer.enabled:
            tracer.emit(
                EventKind.PHASE_SHIFT, ev.target, pid=pid,
                args={"epoch": epoch, **ev.params},
            )

    def _ev_qos_change(self, ev, epoch: int, tracer) -> None:
        pid = self._live_pid(ev)
        new = ServiceClass[ev.params["service"]]
        old = self.policy.update_service(pid, new)
        self._qos_changes.append(
            {"epoch": epoch, "key": ev.target, "pid": pid, "from": old.name, "to": new.name}
        )
        if tracer.enabled:
            tracer.emit(
                EventKind.QOS_CHANGE, ev.target, pid=pid,
                args={"epoch": epoch, "from": old.name, "to": new.name},
            )

    def _note_capacity(self, epoch: int, tracer, what: str, **details) -> None:
        online = self.allocator.tiers[0].online
        self._capacity_events.append({"epoch": epoch, "what": what, "fast_online": online, **details})
        if tracer.enabled:
            tracer.emit(
                EventKind.CAPACITY_CHANGE, what,
                args={"epoch": epoch, "fast_online": online, **details},
            )

    def _ev_tier_offline(self, ev, epoch: int, tracer) -> None:
        taken = self.allocator.offline_frames(0, ev.params["pages"])
        self.policy.note_fast_capacity(self.allocator.tiers[0].online)
        self._note_capacity(
            epoch, tracer, "tier_offline",
            requested=ev.params["pages"], offlined=len(taken),
        )

    def _ev_tier_online(self, ev, epoch: int, tracer) -> None:
        n = self.allocator.online_frames(0, ev.params.get("pages"))
        self.policy.note_fast_capacity(self.allocator.tiers[0].online)
        self._note_capacity(epoch, tracer, "tier_online", onlined=n)

    def _ev_link_degrade(self, ev, epoch: int, tracer) -> None:
        self.machine.link.degrade(
            bandwidth_factor=ev.params.get("bandwidth_factor", 1.0),
            latency_factor=ev.params.get("latency_factor", 1.0),
        )
        self._note_capacity(
            epoch, tracer, "link_degrade",
            bandwidth_gbps=self.machine.link.bandwidth_gbps,
            added_latency_ns=self.machine.link.added_latency_ns,
        )

    def _ev_link_restore(self, ev, epoch: int, tracer) -> None:
        self.machine.link.restore()
        self._note_capacity(
            epoch, tracer, "link_restore",
            bandwidth_gbps=self.machine.link.bandwidth_gbps,
            added_latency_ns=self.machine.link.added_latency_ns,
        )

    def _ev_faults_set(self, ev, epoch: int, tracer) -> None:
        self.injector.configure(ev.params)
        if tracer.enabled:
            tracer.emit(
                EventKind.FAULT_INJECTED, "faults_set",
                args={"epoch": epoch, "probs": dict(ev.params)},
            )

    def _ev_faults_clear(self, ev, epoch: int, tracer) -> None:
        self.injector.clear()
        if tracer.enabled:
            tracer.emit(EventKind.FAULT_INJECTED, "faults_clear", args={"epoch": epoch})


def run_scenario(
    spec: ScenarioSpec | str,
    *,
    seed: int | None = None,
    policy: str | None = None,
    epochs: int | None = None,
    **kwargs,
) -> ScenarioResult:
    """Run a scenario (by spec or canned name) and return its result."""
    if isinstance(spec, str):
        from repro.scenario.library import get_scenario

        spec = get_scenario(spec)
    overrides = {}
    if epochs is not None:
        overrides["n_epochs"] = epochs
    if overrides:
        spec = spec.with_overrides(**overrides)
    exp = ScenarioExperiment(spec, seed=seed, policy=policy, **kwargs)
    exp.run()
    assert exp.scenario_result is not None
    return exp.scenario_result
