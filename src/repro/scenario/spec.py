"""Declarative scenario specifications (DESIGN.md §scenario).

A :class:`ScenarioSpec` is a scripted timeline: a set of workload
definitions plus a list of epoch-stamped events (departures, restarts,
phase shifts, QoS changes, capacity events, fault windows) that the
:class:`~repro.scenario.engine.ScenarioExperiment` applies at epoch
boundaries.  Specs are plain data — JSON-loadable, validated up front,
and content-hashable so a result or a promoted crasher names the
exact scenario that produced it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

import numpy as np

#: workload generator kinds the engine can instantiate
VALID_KINDS = ("memcached", "pagerank", "liblinear", "microbench")
VALID_SERVICES = ("LC", "BE")
#: every scripted action the engine dispatches
VALID_ACTIONS = (
    "depart",
    "restart",
    "phase_shift",
    "qos_change",
    "tier_offline",
    "tier_online",
    "link_degrade",
    "link_restore",
    "faults_set",
    "faults_clear",
)
#: actions that name a workload
TARGETED_ACTIONS = ("depart", "restart", "phase_shift", "qos_change")
#: injectable migration-fault kinds (mirrors mm.migration.FaultKind)
FAULT_KEYS = ("aborted_sync", "lost_async", "poisoned_shadow")


class ScenarioSpecError(ValueError):
    """A spec failed validation."""


def _is_int(x) -> bool:
    """A real integer (bools masquerade as ints and must not count)."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, (float, np.floating))


@dataclass(frozen=True)
class WorkloadDef:
    """One workload the scenario may admit (and re-admit on restart)."""

    key: str
    kind: str
    service: str
    rss_pages: int
    n_threads: int = 4
    start_epoch: int = 0
    accesses_per_thread: int = 2_500
    populate_tier: int = 0
    #: extra generator constructor kwargs (e.g. memcached hot_frac)
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "kind": self.kind,
            "service": self.service,
            "rss_pages": self.rss_pages,
            "n_threads": self.n_threads,
            "start_epoch": self.start_epoch,
            "accesses_per_thread": self.accesses_per_thread,
            "populate_tier": self.populate_tier,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadDef":
        return cls(**data)


@dataclass(frozen=True)
class ScenarioEvent:
    """One scripted mid-run event, applied at the start of ``epoch``."""

    epoch: int
    action: str
    target: str | None = None
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "action": self.action,
            "target": self.target,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioEvent":
        return cls(**data)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete scripted experiment timeline."""

    name: str
    n_epochs: int
    workloads: tuple[WorkloadDef, ...] = ()
    events: tuple[ScenarioEvent, ...] = ()
    policy: str = "vulcan"
    seed: int = 1
    description: str = ""

    def __post_init__(self) -> None:
        # Tolerate list inputs (e.g. straight from JSON) by freezing.
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "events", tuple(self.events))

    # -- validation -------------------------------------------------------

    def validate(self) -> "ScenarioSpec":
        """Check internal consistency; returns self so calls chain."""
        if not self.name:
            raise ScenarioSpecError("scenario needs a name")
        if self.n_epochs <= 0:
            raise ScenarioSpecError("n_epochs must be positive")
        if not self.workloads:
            raise ScenarioSpecError("scenario needs at least one workload")
        keys = [d.key for d in self.workloads]
        if len(set(keys)) != len(keys):
            raise ScenarioSpecError(f"duplicate workload keys: {keys}")
        for d in self.workloads:
            self._validate_workload(d)
        alive = {d.key: None for d in self.workloads}  # key -> departed?
        starts = {d.key: d.start_epoch for d in self.workloads}
        for ev in sorted(self.events, key=lambda e: e.epoch):
            self._validate_event(ev, starts, alive)
        return self

    def _validate_workload(self, d: WorkloadDef) -> None:
        if d.kind not in VALID_KINDS:
            raise ScenarioSpecError(f"{d.key}: unknown kind {d.kind!r} (pick from {VALID_KINDS})")
        if d.service not in VALID_SERVICES:
            raise ScenarioSpecError(f"{d.key}: service must be LC or BE, got {d.service!r}")
        for name in ("rss_pages", "n_threads", "start_epoch", "accesses_per_thread"):
            if not _is_int(getattr(d, name)):
                raise ScenarioSpecError(
                    f"{d.key}: {name} must be an integer, got {getattr(d, name)!r}"
                )
        if d.rss_pages <= 0 or d.n_threads <= 0 or d.accesses_per_thread <= 0:
            raise ScenarioSpecError(f"{d.key}: rss/threads/accesses must be positive")
        if not 0 <= d.start_epoch < self.n_epochs:
            raise ScenarioSpecError(f"{d.key}: start_epoch {d.start_epoch} outside [0, {self.n_epochs})")
        if d.populate_tier not in (0, 1):
            raise ScenarioSpecError(f"{d.key}: populate_tier must be 0 or 1")

    def _validate_event(self, ev: ScenarioEvent, starts: dict, alive: dict) -> None:
        where = f"event @{ev.epoch} {ev.action}"
        if not _is_int(ev.epoch):
            # The engine dispatches events from a dict keyed by int epoch,
            # so a float/str/bool epoch would silently never fire.
            raise ScenarioSpecError(f"{where}: epoch must be an integer, got {ev.epoch!r}")
        if not 0 <= ev.epoch < self.n_epochs:
            raise ScenarioSpecError(f"{where}: epoch outside [0, {self.n_epochs})")
        if ev.action not in VALID_ACTIONS:
            raise ScenarioSpecError(f"{where}: unknown action (pick from {VALID_ACTIONS})")
        if ev.action in TARGETED_ACTIONS:
            if ev.target not in starts:
                raise ScenarioSpecError(f"{where}: unknown target {ev.target!r}")
            if ev.epoch < starts[ev.target] and ev.action != "restart":
                raise ScenarioSpecError(f"{where}: {ev.target} has not started yet")
        if ev.action == "depart":
            if alive[ev.target] == "departed":
                raise ScenarioSpecError(f"{where}: {ev.target} already departed")
            alive[ev.target] = "departed"
        elif ev.action == "restart":
            if alive[ev.target] != "departed":
                raise ScenarioSpecError(f"{where}: restart needs a prior depart of {ev.target}")
            alive[ev.target] = None
        elif ev.action == "qos_change":
            svc = ev.params.get("service")
            if svc not in VALID_SERVICES:
                raise ScenarioSpecError(f"{where}: params.service must be LC or BE")
        elif ev.action == "phase_shift":
            if not ev.params.get("attrs") and "reseed" not in ev.params:
                raise ScenarioSpecError(f"{where}: needs params.attrs and/or params.reseed")
        elif ev.action in ("tier_offline", "tier_online"):
            pages = ev.params.get("pages")
            if ev.action == "tier_offline" and (not isinstance(pages, int) or pages <= 0):
                raise ScenarioSpecError(f"{where}: params.pages must be a positive int")
            if ev.action == "tier_online" and pages is not None and (not isinstance(pages, int) or pages <= 0):
                raise ScenarioSpecError(f"{where}: params.pages must be a positive int or absent")
        elif ev.action == "link_degrade":
            bf = ev.params.get("bandwidth_factor", 1.0)
            lf = ev.params.get("latency_factor", 1.0)
            if not _is_number(bf) or not 0 < bf <= 1:
                raise ScenarioSpecError(
                    f"{where}: bandwidth_factor must be a number in (0, 1], got {bf!r}"
                )
            if not _is_number(lf) or lf < 1:
                raise ScenarioSpecError(
                    f"{where}: latency_factor must be a number >= 1, got {lf!r}"
                )
        elif ev.action == "faults_set":
            if not ev.params:
                raise ScenarioSpecError(f"{where}: needs at least one fault probability")
            for k, p in ev.params.items():
                if k not in FAULT_KEYS:
                    raise ScenarioSpecError(f"{where}: unknown fault kind {k!r} (pick from {FAULT_KEYS})")
                if not _is_number(p) or not 0.0 <= p <= 1.0:
                    raise ScenarioSpecError(
                        f"{where}: probability of {k} must be a number in [0, 1], got {p!r}"
                    )

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "policy": self.policy,
            "seed": self.seed,
            "n_epochs": self.n_epochs,
            "workloads": [d.to_dict() for d in self.workloads],
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioSpec":
        return cls(
            name=data["name"],
            description=data.get("description", ""),
            policy=data.get("policy", "vulcan"),
            seed=data.get("seed", 1),
            n_epochs=data["n_epochs"],
            workloads=tuple(WorkloadDef.from_dict(d) for d in data.get("workloads", [])),
            events=tuple(ScenarioEvent.from_dict(e) for e in data.get("events", [])),
        ).validate()

    @classmethod
    def from_json(cls, path) -> "ScenarioSpec":
        with open(path) as f:
            return cls.from_dict(json.load(f))

    def content_hash(self) -> str:
        """Stable digest of the full spec content.

        Two specs hash equal iff their canonical JSON forms are equal.
        The scenario result and fuzz records carry it as ``spec_hash``,
        and promoted crasher files are named after it.
        """
        canon = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()

    def last_scripted_epoch(self) -> int:
        """Latest epoch at which anything is scripted to happen."""
        return max([d.start_epoch for d in self.workloads]
                   + [e.epoch for e in self.events], default=0)

    def check_horizon(self, n_epochs: int) -> None:
        """Reject a run horizon that would silently drop scripted activity.

        Shared by :meth:`with_overrides` and the engine's ``run()``
        override guard — both paths must fail loudly rather than run a
        truncated timeline that no longer means what the spec says.
        """
        last = self.last_scripted_epoch()
        if n_epochs <= last:
            raise ScenarioSpecError(
                f"n_epochs {n_epochs} would cut off scripted activity at epoch {last}"
            )

    def with_overrides(self, **kwargs) -> "ScenarioSpec":
        """A copy with fields replaced (CLI --seed/--policy/--epochs)."""
        if "n_epochs" in kwargs and kwargs["n_epochs"] != self.n_epochs:
            self.check_horizon(kwargs["n_epochs"])
        return replace(self, **kwargs).validate()
