"""The fleet epoch loop: N nodes, one global placer, sync rounds.

Each sync round the fleet (1) dispatches cross-node events (drains
evacuate their residents, joins bring capacity online, flash crowds
inflate resident demand), (2) asks the placer for a complete
assignment and diffs it against the current one — new keys are
placements, moved keys are live migrations charged the modeled
cross-node cost — and (3) advances every busy node one round in this
process (:func:`repro.fleet.node.run_node_round`), seeded from the
round's canonical cell JSON.  All cross-round state (assignment,
telemetry, accumulators) lives here, and a round's seed depends only
on its own cell — so a same-seed fleet is bit-identical whether or not
its oracle is armed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from repro.fleet.metrics import (
    fleet_cfi,
    node_cfi_spread,
    oracle_assignment,
    percentile,
    placement_score,
)
from repro.fleet.node import (
    CROSS_NODE_PAGE_CYCLES,
    NodeTelemetry,
    build_node_cell,
    idle_node_telemetry,
    node_capacity_pages,
    node_workload_slots,
    run_node_round,
)
from repro.fleet.placer import make_placer
from repro.fleet.spec import FleetSpec
from repro.harness.parallel import derive_cell_seed
from repro.obs.events import EventKind
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class MoveRecord:
    """One cross-node workload move (placement, migration, or evacuation)."""

    round: int
    key: str
    src: str | None  # None for an initial placement
    dst: str
    pages: int
    cycles: int
    reason: str  # "placement" | "rebalance" | "evacuation"

    def to_dict(self) -> dict:
        return {
            "round": self.round,
            "key": self.key,
            "src": self.src,
            "dst": self.dst,
            "pages": self.pages,
            "cycles": self.cycles,
            "reason": self.reason,
        }


@dataclass
class FleetResult:
    """Everything a fleet run produced, in plain-data form."""

    spec: FleetSpec
    rounds: list[dict] = field(default_factory=list)
    moves: list[MoveRecord] = field(default_factory=list)
    weighted_alloc: dict[str, float] = field(default_factory=dict)
    node_cfis: dict[str, list[float]] = field(default_factory=dict)
    node_epochs: int = 0

    # -- derived metrics ---------------------------------------------------

    def fleet_cfi(self) -> float:
        return fleet_cfi(self.weighted_alloc)

    def cfi_spread(self) -> dict:
        return node_cfi_spread(self.node_cfis)

    def evacuation_cycles(self) -> list[int]:
        return [m.cycles for m in self.moves if m.reason == "evacuation"]

    def quality(self) -> dict:
        """Mean per-round placement score and vs-oracle ratio (where known)."""
        scores = [r["score"] for r in self.rounds]
        ratios = [r["vs_oracle"] for r in self.rounds if r["vs_oracle"] is not None]
        return {
            "mean_score": sum(scores) / len(scores) if scores else 1.0,
            "mean_vs_oracle": sum(ratios) / len(ratios) if ratios else None,
        }

    def summary(self) -> dict:
        evac = self.evacuation_cycles()
        by_reason = {"placement": 0, "rebalance": 0, "evacuation": 0}
        for m in self.moves:
            by_reason[m.reason] += 1
        q = self.quality()
        return {
            "fleet": self.spec.name,
            "placer": self.spec.placer,
            "policy": self.spec.policy,
            "seed": self.spec.seed,
            "n_rounds": self.spec.n_rounds,
            "n_nodes": len(self.spec.nodes),
            "n_workloads": len(self.spec.workloads),
            "node_epochs": self.node_epochs,
            "fleet_cfi": self.fleet_cfi(),
            "node_cfi_spread": self.cfi_spread()["spread"],
            "placement_score": q["mean_score"],
            "vs_oracle": q["mean_vs_oracle"],
            "placements": by_reason["placement"],
            "migrations": by_reason["rebalance"],
            "evacuations": by_reason["evacuation"],
            "cross_node_pages": sum(m.pages for m in self.moves if m.src is not None),
            "evacuation_p99_cycles": percentile([float(c) for c in evac], 99.0),
        }

    def to_dict(self) -> dict:
        return {
            "spec": self.spec.to_dict(),
            "spec_hash": self.spec.content_hash(),
            "summary": self.summary(),
            "cfi_spread": self.cfi_spread(),
            "weighted_alloc": {k: self.weighted_alloc[k] for k in sorted(self.weighted_alloc)},
            "rounds": self.rounds,
            "moves": [m.to_dict() for m in self.moves],
        }

    def canonical_json(self) -> str:
        """The bit-identity surface the determinism tests and digests pin."""
        return json.dumps(self.to_dict(), sort_keys=True)


class FleetExperiment:
    """Run one :class:`FleetSpec` to completion."""

    def __init__(self, spec: FleetSpec, *, workers: int = 1, check: bool = False) -> None:
        # ``workers`` stays for callers that pass ``workers=1``
        # (bench/workloads.py); node rounds always run in this process.
        if workers != 1:
            raise ValueError("node rounds run in-process: workers must be 1")
        self.spec = spec.validate()
        self.check = check
        self.placer = make_placer(spec.placer)
        self.active: set[str] = spec.initially_active()
        self.fast_gb = {n.node_id: n.fast_gb for n in spec.nodes}
        self.defs = {d.key: d for d in spec.workloads}
        self.assignment: dict[str, str | None] = {d.key: None for d in spec.workloads}
        self.telemetry: dict[str, NodeTelemetry] = {}
        #: key → [multiplier, rounds_remaining] while a flash crowd is live
        self.crowd: dict[str, list] = {}
        #: (demands, capacities) items → best oracle score, or None when
        #: the search is refused or infeasible; the search is pure, and a
        #: fleet revisits few distinct inputs
        self._oracle_best: dict[tuple, float | None] = {}
        self.result = FleetResult(spec=spec)
        for d in spec.workloads:
            self.result.weighted_alloc[d.key] = 0.0
        for n in spec.nodes:
            self.result.node_cfis[n.node_id] = []

    # -- event dispatch ----------------------------------------------------

    def _dispatch(self, round_index: int) -> list[tuple[str, str]]:
        """Apply this round's events; returns evacuated (key, src) pairs."""
        tracer = get_tracer()
        registry = get_registry()
        evacuated: list[tuple[str, str]] = []
        due = [e for e in self.spec.events if e.round == round_index]
        for ev in sorted(due, key=lambda e: (e.action, e.node or "")):
            if ev.action == "node_drain":
                self.active.discard(ev.node)
                self.telemetry.pop(ev.node, None)
                residents = sorted(k for k, n in self.assignment.items() if n == ev.node)
                for key in residents:
                    self.assignment[key] = None
                    evacuated.append((key, ev.node))
                tracer.emit(EventKind.FLEET_NODE_CHANGE, "node_drain",
                            args={"node": ev.node, "round": round_index,
                                  "evacuating": len(residents)})
                registry.counter("fleet_node_changes", change="drain").inc()
            elif ev.action == "node_join":
                self.active.add(ev.node)
                tracer.emit(EventKind.FLEET_NODE_CHANGE, "node_join",
                            args={"node": ev.node, "round": round_index})
                registry.counter("fleet_node_changes", change="join").inc()
            elif ev.action == "flash_crowd":
                factor = float(ev.params["factor"])
                rounds = int(ev.params.get("rounds", 1))
                for key in sorted(k for k, n in self.assignment.items() if n == ev.node):
                    self.crowd[key] = [factor, rounds]
                tracer.emit(EventKind.FLEET_NODE_CHANGE, "flash_crowd",
                            args={"node": ev.node, "round": round_index,
                                  "factor": factor, "rounds": rounds})
                registry.counter("fleet_node_changes", change="flash_crowd").inc()
        return evacuated

    def _effective_demand(self, key: str) -> int:
        base = self.defs[key].rss_pages
        if key in self.crowd:
            return max(1, int(round(base * self.crowd[key][0])))
        return base

    # -- one sync round ----------------------------------------------------

    def _place(self, round_index: int, evacuated: list[tuple[str, str]]) -> dict:
        """Run the placer, record the moves, return the round record."""
        tracer = get_tracer()
        registry = get_registry()
        demands = {k: self._effective_demand(k) for k in sorted(self.assignment)}
        capacities = {n: node_capacity_pages(self.fast_gb[n]) for n in sorted(self.active)}
        new = self.placer.assign(
            demands=demands,
            capacities=capacities,
            current=dict(self.assignment),
            telemetry=dict(self.telemetry),
        )
        missing = set(demands) - set(new)
        stray = {k for k, n in new.items() if n not in capacities}
        if missing or stray:
            raise RuntimeError(
                f"placer {self.placer.name!r} broke its contract at round "
                f"{round_index}: unassigned={sorted(missing)} "
                f"on-inactive-nodes={sorted(stray)}"
            )

        evacuated_src = dict(evacuated)
        for key in sorted(new):
            src, dst = self.assignment[key], new[key]
            if src == dst:
                continue
            pages = demands[key]
            if src is None and key in evacuated_src:
                reason, src = "evacuation", evacuated_src[key]
                kind, counter = EventKind.FLEET_EVACUATION, "fleet_evacuations_total"
            elif src is None:
                reason = "placement"
                kind, counter = EventKind.FLEET_PLACEMENT, "fleet_placements_total"
            else:
                reason = "rebalance"
                kind, counter = EventKind.FLEET_MIGRATION, "fleet_migrations_total"
            cycles = 0 if reason == "placement" else pages * CROSS_NODE_PAGE_CYCLES
            self.result.moves.append(MoveRecord(
                round=round_index, key=key, src=src, dst=dst,
                pages=pages, cycles=cycles, reason=reason,
            ))
            tracer.emit(kind, reason, args={
                "key": key, "src": src, "dst": dst,
                "pages": pages, "cycles": cycles, "round": round_index,
            })
            registry.counter(counter).inc()
            if reason != "placement":
                registry.counter("fleet_cross_node_pages_total").inc(pages)
            self.assignment[key] = dst

        score = placement_score(new, demands, capacities)
        best = self._oracle_score(demands, capacities)
        if best is None:
            vs_oracle = None
        else:
            vs_oracle = 1.0 if best == 0.0 else score / best
        return {
            "round": round_index,
            "active": sorted(self.active),
            "assignment": {k: new[k] for k in sorted(new)},
            "demands": demands,
            "score": score,
            "oracle_score": best,
            "vs_oracle": vs_oracle,
        }

    def _oracle_score(self, demands: dict[str, int], capacities: dict[str, int]) -> float | None:
        """The oracle's best score for these inputs, searched once per
        distinct input (``_place`` builds both dicts in sorted key order,
        so their items are a canonical key)."""
        key = (tuple(demands.items()), tuple(capacities.items()))
        if key not in self._oracle_best:
            try:
                _, best = oracle_assignment(
                    demands, capacities, max_per_node=node_workload_slots(),
                )
            except ValueError:
                best = None
            self._oracle_best[key] = best
        return self._oracle_best[key]

    def _advance_nodes(self, round_index: int) -> dict[str, NodeTelemetry]:
        """Advance every active node one round, in this process."""
        residents: dict[str, list] = {n: [] for n in sorted(self.active)}
        for key in sorted(self.assignment):
            node = self.assignment[key]
            d = self.defs[key]
            eff = self._effective_demand(key)
            residents[node].append(d if eff == d.rss_pages else replace(d, rss_pages=eff))

        telemetry: dict[str, NodeTelemetry] = {}
        for node in sorted(self.active):
            if not residents[node]:
                telemetry[node] = idle_node_telemetry(node, round_index, self.fast_gb[node])
                continue
            cell = dict(
                node_id=node,
                round_index=round_index,
                fast_gb=self.fast_gb[node],
                epochs=self.spec.epochs_per_round,
                policy=self.spec.policy,
                workloads=residents[node],
            )
            seed = derive_cell_seed((("node_cell", build_node_cell(**cell)),), self.spec.seed)
            telemetry[node] = run_node_round(**cell, seed=seed, check=self.check)
            self.result.node_epochs += self.spec.epochs_per_round
        return telemetry

    def run(self) -> FleetResult:
        tracer = get_tracer()
        registry = get_registry()
        for round_index in range(self.spec.n_rounds):
            evacuated = self._dispatch(round_index)
            record = self._place(round_index, evacuated)
            telemetry = self._advance_nodes(round_index)

            for node in sorted(telemetry):
                t = telemetry[node]
                if len(t.workloads) >= 2:
                    self.result.node_cfis[node].append(t.cfi)
                for w in t.workloads:
                    self.result.weighted_alloc[w.key] += w.mean_fthr * w.fast_pages
                registry.gauge("fleet_node_credit", node=node).set(t.credit_balance)
                registry.gauge("fleet_node_free_pages", node=node).set(t.free_fast_pages)
            self.telemetry = telemetry

            record["nodes"] = [telemetry[n].to_dict() for n in sorted(telemetry)]
            self.result.rounds.append(record)
            if self.check:
                from repro.fuzz.oracle import check_fleet_round

                check_fleet_round(record, set(self.defs))

            registry.counter("fleet_rounds_total").inc()
            tracer.emit(EventKind.FLEET_ROUND, "round", args={
                "round": round_index,
                "active": sorted(self.active),
                "score": record["score"],
            })
            for key in [k for k, c in list(self.crowd.items())]:
                self.crowd[key][1] -= 1
                if self.crowd[key][1] <= 0:
                    del self.crowd[key]
        return self.result


def run_fleet(spec: FleetSpec, *, check: bool = False) -> FleetResult:
    """Convenience wrapper: build, run, return the result."""
    return FleetExperiment(spec, check=check).run()
