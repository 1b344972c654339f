"""Typed job model for the control plane.

A :class:`JobSpec` is the unit of submission: a kind (``run`` /
``sweep`` / ``scenario``) plus a kind-specific payload.  Specs are
validated and *normalized* up front — defaults filled in, lists
coerced — so that two submissions meaning the same work produce the
same canonical form, and therefore the same content hash.  The hash
**is** the job id: dedup is structural, not cooperative.

A :class:`Job` is the queue's runtime record of one spec: a
:class:`JobState` machine (``PENDING → RUNNING → DONE/FAILED``, with
``CANCELLED`` reachable from the live states and ``PENDING`` reachable
again from every non-``DONE`` state for retry/recovery), wall-clock
timestamps for the service observability story, and bookkeeping for
where the result landed.  The *result* itself is always produced on
the deterministic simulated clock — wall time never leaks into
payloads.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

from repro.harness.cache import content_hash

VALID_JOB_KINDS = ("run", "sweep", "scenario", "fleet")

#: schema version folded into every job id; bump on payload layout changes
JOB_SPEC_VERSION = 1

#: kind → (payload defaults).  Values chosen light enough for a service
#: default (a submit with an empty payload completes in ~1s).
RUN_DEFAULTS: dict = {
    "policy": "vulcan", "mix": "paper", "epochs": 12, "accesses": 2000, "seed": 1,
}
SWEEP_DEFAULTS: dict = {
    "policy": "vulcan", "mix": "dilemma", "epochs": 8, "accesses": 1000,
    "fast_gb": [8.0, 16.0], "seeds": [1, 2], "workers": 1, "derived_seeds": False,
}
SCENARIO_DEFAULTS: dict = {
    "name": None, "spec": None, "policy": None, "seed": None, "epochs": None,
    "window": 10,
}
FLEET_DEFAULTS: dict = {
    "name": None, "spec": None, "policy": None, "placer": None, "seed": None,
}

#: hard cap on nested sweep parallelism inside one job (the scheduler
#: already runs jobs concurrently; unbounded nesting would fork-bomb)
MAX_SWEEP_WORKERS = 4


class JobError(ValueError):
    """A job spec failed validation (HTTP 400 at the API boundary)."""


class IllegalTransition(JobError):
    """A state change the :class:`JobState` machine forbids (HTTP 409)."""


class JobState(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


#: the full legal-transition relation.  ``FAILED/CANCELLED → PENDING``
#: is resubmission; ``RUNNING → PENDING`` is crash/shutdown recovery
#: (the journal replay re-queues work the dying server never finished).
LEGAL_TRANSITIONS: dict[JobState, tuple[JobState, ...]] = {
    JobState.PENDING: (JobState.RUNNING, JobState.CANCELLED),
    JobState.RUNNING: (JobState.DONE, JobState.FAILED, JobState.CANCELLED, JobState.PENDING),
    JobState.DONE: (),
    JobState.FAILED: (JobState.PENDING,),
    JobState.CANCELLED: (JobState.PENDING,),
}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise JobError(msg)


def _known_policies() -> tuple[str, ...]:
    from repro.policies import POLICY_REGISTRY

    return tuple(sorted(POLICY_REGISTRY))


@dataclass(frozen=True)
class JobSpec:
    """One submittable unit of work: kind + kind-specific payload."""

    kind: str
    payload: dict = field(default_factory=dict)

    # -- validation / normalization ---------------------------------------

    def normalized(self) -> "JobSpec":
        """Defaults filled, values coerced, everything validated.

        Normalization is what makes dedup structural: ``{"kind":
        "run"}`` and ``{"kind": "run", "payload": {"seed": 1}}`` mean
        the same work and must hash identically.
        """
        _require(self.kind in VALID_JOB_KINDS,
                 f"unknown job kind {self.kind!r} (pick from {VALID_JOB_KINDS})")
        norm = getattr(self, f"_normalize_{self.kind}")()
        return JobSpec(kind=self.kind, payload=norm)

    def _base(self, defaults: dict) -> dict:
        _require(isinstance(self.payload, dict), "payload must be an object")
        unknown = set(self.payload) - set(defaults)
        _require(not unknown, f"unknown {self.kind} payload keys: {sorted(unknown)}")
        merged = {**defaults, **self.payload}
        return merged

    def _normalize_run(self) -> dict:
        from repro.harness.recipes import MIX_NAMES

        p = self._base(RUN_DEFAULTS)
        _require(p["policy"] in _known_policies(),
                 f"unknown policy {p['policy']!r} (pick from {_known_policies()})")
        _require(p["mix"] in MIX_NAMES, f"unknown mix {p['mix']!r} (pick from {MIX_NAMES})")
        for k in ("epochs", "accesses", "seed"):
            _require(isinstance(p[k], int) and not isinstance(p[k], bool), f"{k} must be an int")
        _require(p["epochs"] > 0, "epochs must be positive")
        _require(p["accesses"] > 0, "accesses must be positive")
        return p

    def _normalize_sweep(self) -> dict:
        from repro.harness.recipes import MIX_NAMES

        p = self._base(SWEEP_DEFAULTS)
        _require(p["policy"] in _known_policies(),
                 f"unknown policy {p['policy']!r} (pick from {_known_policies()})")
        _require(p["mix"] in MIX_NAMES, f"unknown mix {p['mix']!r} (pick from {MIX_NAMES})")
        for k in ("epochs", "accesses", "workers"):
            _require(isinstance(p[k], int) and not isinstance(p[k], bool), f"{k} must be an int")
        _require(p["epochs"] > 0 and p["accesses"] > 0, "epochs/accesses must be positive")
        _require(1 <= p["workers"] <= MAX_SWEEP_WORKERS,
                 f"workers must lie in [1, {MAX_SWEEP_WORKERS}]")
        _require(isinstance(p["fast_gb"], (list, tuple)) and p["fast_gb"],
                 "fast_gb must be a non-empty list")
        _require(all(isinstance(v, (int, float)) and not isinstance(v, bool) and v > 0
                     for v in p["fast_gb"]),
                 "fast_gb entries must be positive numbers")
        p["fast_gb"] = [float(v) for v in p["fast_gb"]]
        _require(isinstance(p["seeds"], (list, tuple)) and p["seeds"],
                 "seeds must be a non-empty list")
        _require(all(isinstance(s, int) and not isinstance(s, bool) for s in p["seeds"]),
                 "seeds entries must be ints")
        p["seeds"] = [int(s) for s in p["seeds"]]
        _require(isinstance(p["derived_seeds"], bool), "derived_seeds must be a bool")
        return p

    def _normalize_scenario(self) -> dict:
        p = self._base(SCENARIO_DEFAULTS)
        _require((p["name"] is None) != (p["spec"] is None),
                 "scenario payload needs exactly one of 'name' (canned) or 'spec' (inline)")
        if p["name"] is not None:
            from repro.scenario import scenario_names

            _require(p["name"] in scenario_names(),
                     f"unknown scenario {p['name']!r} (pick from {tuple(scenario_names())})")
        else:
            from repro.scenario import ScenarioSpec, ScenarioSpecError

            _require(isinstance(p["spec"], dict), "scenario spec must be an object")
            try:
                canon = ScenarioSpec.from_dict(p["spec"])
            except (ScenarioSpecError, KeyError, TypeError) as exc:
                raise JobError(f"invalid scenario spec: {exc}") from exc
            p["spec"] = canon.to_dict()
        if p["policy"] is not None:
            _require(p["policy"] in _known_policies(),
                     f"unknown policy {p['policy']!r} (pick from {_known_policies()})")
        for k in ("seed", "epochs"):
            if p[k] is not None:
                _require(isinstance(p[k], int) and not isinstance(p[k], bool), f"{k} must be an int")
        _require(isinstance(p["window"], int) and p["window"] > 0, "window must be a positive int")
        return p

    def _normalize_fleet(self) -> dict:
        p = self._base(FLEET_DEFAULTS)
        _require((p["name"] is None) != (p["spec"] is None),
                 "fleet payload needs exactly one of 'name' (canned) or 'spec' (inline)")
        if p["name"] is not None:
            from repro.fleet import fleet_scenario_names

            _require(p["name"] in fleet_scenario_names(),
                     f"unknown fleet scenario {p['name']!r} "
                     f"(pick from {tuple(fleet_scenario_names())})")
        else:
            from repro.fleet import FleetSpec, FleetSpecError

            _require(isinstance(p["spec"], dict), "fleet spec must be an object")
            try:
                canon = FleetSpec.from_dict(p["spec"])
            except (FleetSpecError, KeyError, TypeError) as exc:
                raise JobError(f"invalid fleet spec: {exc}") from exc
            p["spec"] = canon.to_dict()
        if p["policy"] is not None:
            _require(p["policy"] in _known_policies(),
                     f"unknown policy {p['policy']!r} (pick from {_known_policies()})")
        if p["placer"] is not None:
            from repro.fleet.spec import VALID_PLACERS

            _require(p["placer"] in VALID_PLACERS,
                     f"unknown placer {p['placer']!r} (pick from {VALID_PLACERS})")
        if p["seed"] is not None:
            _require(isinstance(p["seed"], int) and not isinstance(p["seed"], bool),
                     "seed must be an int")
        return p

    # -- identity ----------------------------------------------------------

    def content_hash(self) -> str:
        """Stable sha256 of the *normalized* spec — the dedup key.

        Stable across processes and ``PYTHONHASHSEED`` values (see
        ``harness.cache.content_hash``); the spec version is folded in
        so a payload-layout change can never alias old results.
        """
        norm = self.normalized()
        return content_hash({"v": JOB_SPEC_VERSION, "kind": norm.kind, "payload": norm.payload})

    def job_id(self) -> str:
        """The job id *is* the content hash (truncated for ergonomics;
        64 bits of collision resistance is plenty for a job registry)."""
        return self.content_hash()[:16]

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return {"kind": self.kind, "payload": dict(self.payload)}

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        _require(isinstance(data, dict), "job spec must be an object")
        unknown = set(data) - {"kind", "payload"}
        _require(not unknown, f"unknown job spec keys: {sorted(unknown)}")
        _require("kind" in data, "job spec needs a 'kind'")
        return cls(kind=data["kind"], payload=data.get("payload") or {}).normalized()


@dataclass
class Job:
    """The queue's runtime record of one submitted spec."""

    job_id: str
    spec: JobSpec
    state: JobState = JobState.PENDING
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    attempts: int = 0
    cancel_requested: bool = False
    error: dict | None = None
    result_key: str | None = None
    cached: bool = False

    def transition(self, to: JobState, *, at: float | None = None) -> None:
        """Apply one state change; raises :class:`IllegalTransition`."""
        to = JobState(to)
        if to not in LEGAL_TRANSITIONS[self.state]:
            raise IllegalTransition(
                f"job {self.job_id}: illegal transition {self.state.value} -> {to.value}"
            )
        now = time.time() if at is None else at
        if to is JobState.RUNNING:
            self.started_at = now
            self.attempts += 1
        elif to.terminal:
            self.finished_at = now
        elif to is JobState.PENDING:
            # retry / recovery: the record goes back to a clean slate
            self.started_at = None
            self.finished_at = None
            self.error = None
            self.cancel_requested = False
        self.state = to

    def to_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "kind": self.spec.kind,
            "payload": dict(self.spec.payload),
            "state": self.state.value,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cancel_requested": self.cancel_requested,
            "error": self.error,
            "result_key": self.result_key,
            "cached": self.cached,
        }
