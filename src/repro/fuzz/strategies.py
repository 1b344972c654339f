"""Generation of arbitrary *valid* scenario timelines (DESIGN.md §fuzz).

The core generator is plain seeded numpy — :func:`generate_case` maps
``(master_seed, index)`` to one :class:`FuzzCase` through its own
``default_rng([master_seed, index])`` stream, so case *i* of a campaign
is always the same spec regardless of which other cases run.  Validity
is by construction: the generator walks the same alive/departed state
machine ``ScenarioSpec.validate`` checks, and every emitted spec is
passed through ``validate()`` before it leaves — a generator bug fails
the fuzzer, not the target.

When hypothesis is installed, :func:`spec_strategy` wraps the same
generator (drawing only the seed pair), so hypothesis shrinking over
seeds composes with our structural shrinker over timelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.scenario.spec import (
    FAULT_KEYS,
    VALID_KINDS,
    ScenarioEvent,
    ScenarioSpec,
    WorkloadDef,
)

#: fast-tier sizes (GiB) the fuzzer samples — small enough that the
#: 80–400-page workloads below always contend for fast memory
FAST_GB_CHOICES = (4.0, 8.0, 16.0)

#: policies under test; vulcan is over-weighted because it is the only
#: policy with a daemon (credits, quotas) and so the only one the
#: CBFRP-specific checks exercise
POLICY_CHOICES = ("vulcan", "vulcan", "vulcan", "memtis", "nomad", "tpp", "uniform")

#: reshapeable attributes per workload kind, with safe sample ranges
_RESHAPE_ATTRS = {
    "microbench": (("zipf_skew", 0.5, 1.3), ("read_ratio", 0.1, 1.0)),
    "memcached": (("hot_frac", 0.05, 0.3), ("get_fraction", 0.5, 1.0)),
    "pagerank": (("degree_skew", 0.3, 1.2),),
    "liblinear": (("feature_skew", 0.3, 1.2),),
}


@dataclass(frozen=True)
class FuzzCase:
    """One generated run: a validated spec plus its machine sizing."""

    index: int
    master_seed: int
    spec: ScenarioSpec
    fast_gb: float

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "master_seed": self.master_seed,
            "fast_gb": self.fast_gb,
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        return cls(
            index=data["index"],
            master_seed=data["master_seed"],
            fast_gb=data["fast_gb"],
            spec=ScenarioSpec.from_dict(data["spec"]),
        )


def _gen_workload(rng: np.random.Generator, i: int, n_epochs: int) -> WorkloadDef:
    kind = VALID_KINDS[int(rng.integers(len(VALID_KINDS)))]
    params: dict = {}
    if rng.random() < 0.5:
        name, lo, hi = _RESHAPE_ATTRS[kind][int(rng.integers(len(_RESHAPE_ATTRS[kind])))]
        params[name] = round(float(rng.uniform(lo, hi)), 3)
    return WorkloadDef(
        key=f"w{i}",
        kind=kind,
        service="LC" if rng.random() < 0.4 else "BE",
        rss_pages=int(rng.integers(80, 401)),
        n_threads=int(rng.integers(1, 5)),
        start_epoch=int(rng.integers(0, max(n_epochs // 3, 1))),
        accesses_per_thread=int(rng.integers(400, 1201)),
        populate_tier=int(rng.integers(0, 2)),
        params=params,
    )


def _gen_event(
    rng: np.random.Generator,
    epoch: int,
    defs: list[WorkloadDef],
    departed: set[str],
    faults_armed: bool,
) -> ScenarioEvent | None:
    """One valid event at ``epoch`` given the timeline state so far.

    Mirrors the state machine in ``ScenarioSpec.validate``: targeted
    actions only hit workloads that have started and (except restart)
    not departed; restart only revives a departed key.
    """
    started = [d for d in defs if d.start_epoch <= epoch and d.key not in departed]
    menu: list[str] = []
    if len(started) > 1:  # never depart the last live workload
        menu += ["depart"]
    if departed:
        menu += ["restart", "restart"]
    if started:
        menu += ["phase_shift", "qos_change"]
    menu += ["tier_offline", "tier_online", "link_degrade", "link_restore"]
    menu += ["faults_clear"] if faults_armed else ["faults_set", "faults_set"]
    action = menu[int(rng.integers(len(menu)))]

    if action == "depart":
        target = started[int(rng.integers(len(started)))]
        return ScenarioEvent(epoch=epoch, action="depart", target=target.key)
    if action == "restart":
        key = sorted(departed)[int(rng.integers(len(departed)))]
        return ScenarioEvent(epoch=epoch, action="restart", target=key)
    if action == "phase_shift":
        d = started[int(rng.integers(len(started)))]
        params: dict = {"reseed": int(rng.integers(0, 2**31))}
        if rng.random() < 0.5:
            name, lo, hi = _RESHAPE_ATTRS[d.kind][int(rng.integers(len(_RESHAPE_ATTRS[d.kind])))]
            params["attrs"] = {name: round(float(rng.uniform(lo, hi)), 3)}
        return ScenarioEvent(epoch=epoch, action="phase_shift", target=d.key, params=params)
    if action == "qos_change":
        d = started[int(rng.integers(len(started)))]
        new = "BE" if d.service == "LC" else "LC"
        if rng.random() < 0.3:
            new = d.service  # no-op changes are legal; exercise them too
        return ScenarioEvent(epoch=epoch, action="qos_change", target=d.key,
                             params={"service": new})
    if action == "tier_offline":
        return ScenarioEvent(epoch=epoch, action="tier_offline",
                             params={"pages": int(rng.integers(20, 201))})
    if action == "tier_online":
        params = {} if rng.random() < 0.5 else {"pages": int(rng.integers(20, 201))}
        return ScenarioEvent(epoch=epoch, action="tier_online", params=params)
    if action == "link_degrade":
        return ScenarioEvent(
            epoch=epoch, action="link_degrade",
            params={
                "bandwidth_factor": round(float(rng.uniform(0.2, 1.0)), 3),
                "latency_factor": round(float(rng.uniform(1.0, 4.0)), 3),
            },
        )
    if action == "link_restore":
        return ScenarioEvent(epoch=epoch, action="link_restore")
    if action == "faults_set":
        n_kinds = int(rng.integers(1, len(FAULT_KEYS) + 1))
        picks = rng.permutation(len(FAULT_KEYS))[:n_kinds]
        probs = {FAULT_KEYS[int(i)]: round(float(rng.uniform(0.05, 0.5)), 3) for i in picks}
        return ScenarioEvent(epoch=epoch, action="faults_set", params=probs)
    if action == "faults_clear":
        return ScenarioEvent(epoch=epoch, action="faults_clear")
    return None


def generate_spec(
    rng: np.random.Generator,
    *,
    name: str,
    max_epochs: int = 24,
    event_rate: float = 0.45,
) -> ScenarioSpec:
    """One arbitrary valid timeline drawn from ``rng``."""
    n_epochs = int(rng.integers(6, max_epochs + 1))
    n_workloads = int(rng.integers(1, 5))
    defs = [_gen_workload(rng, i, n_epochs) for i in range(n_workloads)]

    events: list[ScenarioEvent] = []
    departed: set[str] = set()
    faults_armed = False
    for epoch in range(1, n_epochs):
        if rng.random() >= event_rate:
            continue
        ev = _gen_event(rng, epoch, defs, departed, faults_armed)
        if ev is None:
            continue
        events.append(ev)
        if ev.action == "depart":
            departed.add(ev.target)
        elif ev.action == "restart":
            departed.discard(ev.target)
        elif ev.action == "faults_set":
            faults_armed = True
        elif ev.action == "faults_clear":
            faults_armed = False

    return ScenarioSpec(
        name=name,
        n_epochs=n_epochs,
        workloads=tuple(defs),
        events=tuple(events),
        policy=POLICY_CHOICES[int(rng.integers(len(POLICY_CHOICES)))],
        seed=int(rng.integers(0, 2**31)),
        description="fuzz-generated timeline",
    ).validate()


def generate_case(master_seed: int, index: int, *, max_epochs: int = 24) -> FuzzCase:
    """Case ``index`` of campaign ``master_seed`` — a pure function."""
    rng = np.random.default_rng([master_seed, index])
    spec = generate_spec(rng, name=f"fuzz-{master_seed}-{index}", max_epochs=max_epochs)
    fast_gb = FAST_GB_CHOICES[int(rng.integers(len(FAST_GB_CHOICES)))]
    return FuzzCase(index=index, master_seed=master_seed, spec=spec, fast_gb=fast_gb)


# -- fleet cases -----------------------------------------------------------------

#: node fast-tier sizes (GiB) the fleet fuzzer samples — small so the
#: generated workloads always contend for fleet capacity
FLEET_FAST_GB_CHOICES = (2.0, 4.0)


@dataclass(frozen=True)
class FleetFuzzCase:
    """One generated fleet run: a validated FleetSpec."""

    index: int
    master_seed: int
    spec: "FleetSpec"

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "master_seed": self.master_seed,
            "spec": self.spec.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetFuzzCase":
        from repro.fleet import FleetSpec

        return cls(
            index=data["index"],
            master_seed=data["master_seed"],
            spec=FleetSpec.from_dict(data["spec"]),
        )


def _gen_fleet_workload(rng: np.random.Generator, i: int) -> WorkloadDef:
    """A fleet workload: like :func:`_gen_workload` but pinned to
    ``start_epoch == 0`` (the fleet constraint) and sized cheaply —
    a fuzz fleet runs W workloads × R rounds of full experiments."""
    kind = VALID_KINDS[int(rng.integers(len(VALID_KINDS)))]
    params: dict = {}
    if rng.random() < 0.5:
        name, lo, hi = _RESHAPE_ATTRS[kind][int(rng.integers(len(_RESHAPE_ATTRS[kind])))]
        params[name] = round(float(rng.uniform(lo, hi)), 3)
    return WorkloadDef(
        key=f"w{i}",
        kind=kind,
        service="LC" if rng.random() < 0.4 else "BE",
        rss_pages=int(rng.integers(60, 261)),
        n_threads=int(rng.integers(1, 3)),
        start_epoch=0,
        accesses_per_thread=int(rng.integers(300, 801)),
        populate_tier=int(rng.integers(0, 2)),
        params=params,
    )


def generate_fleet_spec(rng: np.random.Generator, *, name: str) -> "FleetSpec":
    """One arbitrary valid fleet drawn from ``rng``.

    Validity is by construction — the event walk maintains the same
    active-node state machine ``validate_timeline`` replays: drains
    never empty the fleet, joins only bring in nodes held back from the
    initial active set, flash crowds only hit active nodes.
    """
    from repro.fleet import FleetEvent, FleetSpec, NodeDef
    from repro.fleet.node import node_workload_slots
    from repro.fleet.spec import VALID_PLACERS

    n_active = int(rng.integers(2, 4))
    n_pending = int(rng.integers(0, 2))
    nodes = tuple(
        NodeDef(
            node_id=f"n{i}",
            fast_gb=FLEET_FAST_GB_CHOICES[int(rng.integers(len(FLEET_FAST_GB_CHOICES)))],
        )
        for i in range(n_active + n_pending)
    )
    pending = [n.node_id for n in nodes[n_active:]]
    active = {n.node_id for n in nodes[:n_active]}

    n_workloads = int(rng.integers(2, 6))
    workloads = tuple(_gen_fleet_workload(rng, i) for i in range(n_workloads))

    n_rounds = int(rng.integers(3, 6))
    events: list[FleetEvent] = []
    # joins are mandatory for pending nodes (a node held out of the
    # initial set must join somewhere or validate_timeline's walk and
    # this generator would disagree about what "pending" means)
    for node_id in pending:
        rnd = int(rng.integers(1, n_rounds))
        events.append(FleetEvent(round=rnd, action="node_join", node=node_id))
        active_at = rnd  # noqa: F841 — joins apply in round order below
    joined_at = {e.node: e.round for e in events}
    for rnd in range(1, n_rounds):
        # same-round events apply sorted by action name, so a node_join
        # lands *after* any flash_crowd/node_drain in its round — only
        # treat joins from strictly earlier rounds as active here
        for node_id in [n for n, r in joined_at.items() if r < rnd]:
            active.add(node_id)
        if rng.random() >= 0.6:
            continue
        menu = ["flash_crowd"]
        # a drain is only on the menu when the survivors still have a
        # core-block slot for every workload (mirrors validate_timeline)
        if len(active) > 1 and (len(active) - 1) * node_workload_slots() >= n_workloads:
            menu += ["node_drain"]
        action = menu[int(rng.integers(len(menu)))]
        target = sorted(active)[int(rng.integers(len(active)))]
        if action == "node_drain":
            events.append(FleetEvent(round=rnd, action="node_drain", node=target))
            active.discard(target)
        else:
            events.append(FleetEvent(
                round=rnd, action="flash_crowd", node=target,
                params={
                    "factor": round(float(rng.uniform(1.2, 3.0)), 3),
                    "rounds": int(rng.integers(1, 3)),
                },
            ))

    return FleetSpec(
        name=name,
        n_rounds=n_rounds,
        epochs_per_round=int(rng.integers(2, 4)),
        nodes=nodes,
        workloads=workloads,
        events=tuple(events),
        policy=POLICY_CHOICES[int(rng.integers(len(POLICY_CHOICES)))],
        placer=VALID_PLACERS[int(rng.integers(len(VALID_PLACERS)))],
        seed=int(rng.integers(0, 2**31)),
        description="fuzz-generated fleet",
    ).validate()


def generate_fleet_case(master_seed: int, index: int) -> FleetFuzzCase:
    """Fleet case ``index`` of campaign ``master_seed`` — a pure function.

    Seeded with a distinct third stream component so a fleet campaign
    and a scenario campaign at the same master seed stay decorrelated.
    """
    rng = np.random.default_rng([master_seed, index, 2])
    spec = generate_fleet_spec(rng, name=f"fleet-fuzz-{master_seed}-{index}")
    return FleetFuzzCase(index=index, master_seed=master_seed, spec=spec)


def spec_strategy(max_epochs: int = 24):
    """A hypothesis strategy over valid specs (raises if hypothesis absent).

    Wraps the seeded generator: hypothesis draws the seed pair, the
    generator maps it to a spec.  Shrinking therefore minimizes seeds
    (toward small integers); structural minimization of a failing
    timeline is :mod:`repro.fuzz.shrink`'s job.
    """
    from hypothesis import strategies as st

    return st.builds(
        lambda ms, i: generate_case(ms, i, max_epochs=max_epochs).spec,
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=9999),
    )
