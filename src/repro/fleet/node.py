"""The node handle: one fleet node advancing one sync round.

A node-round runs in the fleet's own process.  :func:`run_node_round`
takes the node's sizing, policy and residents plus a seed, builds a
*fresh* :class:`~repro.scenario.engine.ScenarioExperiment`, runs it for
``epochs_per_round`` epochs, and returns typed :class:`NodeTelemetry`.
No state crosses rounds inside a node — everything the fleet remembers
(assignments, credit history, migration costs) lives in
:class:`~repro.fleet.experiment.FleetExperiment`.

The round's seed is a hash of the canonical JSON :func:`build_node_cell`
returns, so a node-round's random stream depends only on its own
description.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from repro.harness.recipes import STEADY_WINDOW, steady_cfi
from repro.obs.trace import get_tracer
from repro.scenario.spec import WorkloadDef

#: cross-node live-migration cost model: cycles charged per moved page
#: (page copy over the inter-node fabric plus remote invalidation —
#: an order of magnitude above the intra-node per-page migration cost)
CROSS_NODE_PAGE_CYCLES = 40_000


def node_workload_slots() -> int:
    """Hard cap on co-resident workloads per node.

    The single-box harness pins every workload to its own dedicated
    block of ``cores_per_workload`` (8) cores and raises once the
    machine's cores run out, so a node can host at most
    ``n_cores // 8`` workloads no matter how its fast tier is sized.
    Placers must treat this as a bin constraint — fast-tier overload
    degrades gracefully (the slow tier absorbs it); core exhaustion
    does not.  Found by the fleet fuzzer: drains that concentrated
    five workloads onto one survivor crashed its node cell.
    """
    from repro.sim.config import MachineConfig

    return MachineConfig().n_cores // 8


@dataclass(frozen=True)
class WorkloadTelemetry:
    """Per-workload snapshot exported by one node-round."""

    key: str
    service: str
    rss_pages: int
    mean_ops: float
    mean_fthr: float
    fast_pages: int
    credits: int

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "service": self.service,
            "rss_pages": self.rss_pages,
            "mean_ops": self.mean_ops,
            "mean_fthr": self.mean_fthr,
            "fast_pages": self.fast_pages,
            "credits": self.credits,
        }


@dataclass(frozen=True)
class NodeTelemetry:
    """Typed snapshot of one node after one sync round.

    ``credit_balance`` is the node's aggregate CBFRP position (≈0 on a
    healthy node: the ledger is zero-sum, every borrowed unit has a
    donor).  The *contention* signal the credit-balance placer reads is
    ``credit_pressure``: the units the node's tenants are borrowing —
    a node where tenants borrow heavily is one whose fast tier is
    oversubscribed relative to per-tenant demand, even though the
    borrowing nets out to zero inside the box.
    """

    node_id: str
    round: int
    fast_capacity_pages: int
    free_fast_pages: int
    cfi: float
    workloads: tuple[WorkloadTelemetry, ...] = field(default_factory=tuple)

    @property
    def credit_balance(self) -> int:
        return sum(w.credits for w in self.workloads)

    @property
    def credit_pressure(self) -> int:
        """Total units borrowed by this node's tenants (≥ 0)."""
        return sum(-w.credits for w in self.workloads if w.credits < 0)

    @property
    def demand_pages(self) -> int:
        return sum(w.rss_pages for w in self.workloads)

    def to_dict(self) -> dict:
        return {
            "node_id": self.node_id,
            "round": self.round,
            "fast_capacity_pages": self.fast_capacity_pages,
            "free_fast_pages": self.free_fast_pages,
            "cfi": self.cfi,
            "credit_balance": self.credit_balance,
            "credit_pressure": self.credit_pressure,
            "workloads": [w.to_dict() for w in self.workloads],
        }


def node_capacity_pages(fast_gb: float) -> int:
    """Fast-tier frames a node of ``fast_gb`` exposes (pure, no Machine)."""
    from repro.sim.config import SimulationConfig
    from repro.sim.units import GiB

    return int(fast_gb * GiB) // SimulationConfig().page_unit_bytes


def build_node_cell(
    *,
    node_id: str,
    round_index: int,
    fast_gb: float,
    epochs: int,
    policy: str,
    workloads: list[WorkloadDef],
) -> str:
    """The canonical JSON node-round description the round's seed hashes.

    Sorted keys, workloads sorted by key.  ``"check": false`` is fixed:
    whether the oracle watches a round must not move its seed, and the
    pinned result digests come from seeds drawn from exactly these bytes.
    """
    return json.dumps(
        {
            "node_id": node_id,
            "round": round_index,
            "fast_gb": fast_gb,
            "epochs": epochs,
            "policy": policy,
            "check": False,
            "workloads": [d.to_dict() for d in sorted(workloads, key=lambda d: d.key)],
        },
        sort_keys=True,
    )


def run_node_round(
    *,
    node_id: str,
    round_index: int,
    fast_gb: float,
    epochs: int,
    policy: str,
    workloads: list[WorkloadDef],
    seed: int,
    check: bool = False,
) -> NodeTelemetry:
    """Advance one node one sync round; ``check`` arms the invariant oracle.

    Node-internal tracing is off for the duration: each round's fresh
    experiment restarts the shared cycle clock at epoch 0, so node
    events would collide in the fleet's stream.  Fleet-level events are
    the fleet loop's job.
    """
    from repro.fuzz.oracle import InvariantOracle
    from repro.scenario.engine import ScenarioExperiment
    from repro.scenario.spec import ScenarioSpec
    from repro.sim.config import MachineConfig

    defs = tuple(sorted(workloads, key=lambda d: d.key))
    spec = ScenarioSpec(
        name=f"fleet/{node_id}/r{round_index}",
        n_epochs=epochs,
        workloads=defs,
        events=(),
        policy=policy,
        seed=seed,
    ).validate()

    tracer = get_tracer()
    was_tracing = tracer.enabled
    tracer.enabled = False
    try:
        exp = ScenarioExperiment(
            spec,
            oracle=InvariantOracle() if check else None,
            machine_config=MachineConfig().with_fast_gb(fast_gb),
        )
        result = exp.run()
    finally:
        tracer.enabled = was_tracing

    window = min(epochs, STEADY_WINDOW)
    daemon = getattr(exp.policy, "daemon", None)
    wl_telemetry = []
    for d in defs:
        pid = exp._pid_of[d.key]
        ts = result.workloads[pid]
        wl_telemetry.append(WorkloadTelemetry(
            key=d.key,
            service=d.service,
            rss_pages=d.rss_pages,
            mean_ops=float(np.mean(ts.ops[-window:])),
            mean_fthr=float(np.mean(ts.fthr_true[-window:])),
            fast_pages=int(ts.fast_pages[-1]),
            credits=int(daemon.credits.get(pid)) if daemon is not None else 0,
        ))
    fast = exp.allocator.tiers[0]
    return NodeTelemetry(
        node_id=node_id,
        round=round_index,
        fast_capacity_pages=fast.total,
        free_fast_pages=fast.online - fast.used,
        cfi=steady_cfi(result, window=window),
        workloads=tuple(wl_telemetry),
    )


def idle_node_telemetry(node_id: str, round_index: int, fast_gb: float) -> NodeTelemetry:
    """Telemetry for a node with nothing assigned (no experiment needed)."""
    cap = node_capacity_pages(fast_gb)
    return NodeTelemetry(
        node_id=node_id,
        round=round_index,
        fast_capacity_pages=cap,
        free_fast_pages=cap,
        cfi=1.0,
        workloads=(),
    )
