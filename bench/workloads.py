"""The four benchmark workloads: built from a seed, run once, checked.

Each runner builds its inputs from ``seed`` alone, constructs the
simulator, and stamps every epoch boundary through an instance wrapper
(``policy.end_epoch`` returning; on the fleet, ``placer.assign`` being
called).  The stamps split host time into setup (constructor call to the
end of epoch 0, or of round 0 on the fleet), warm-up, and the measured
steady state.  After the run, outside the timed window, the runner
checks the simulator's invariants with the fuzz oracle's final battery
and hashes the simulated result into a digest.  With ``setup_only`` the
runner stops at the end of the setup window by raising :class:`SetupDone`.

Every workload is a batch job in one process: no arrivals, no clients.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from spans import Tracer

#: colocation: the paper's Fig. 9 mix.  PageRank joins at epoch 25 and
#: Liblinear at 55, so the first 60 epochs are warm-up.
COLOCATION = {"epochs": 120, "warmup": 60, "accesses": 5000}
#: churn: the canned churn tenants at twice their RSS (7600 pages against
#: the 3200-page fast tier), faults armed from epoch 8 to the end, and a
#: depart/restart cycle every 20 epochs; 8 cycles are measured.
CHURN = {"epochs": 180, "warmup": 20}
CHURN_CYCLE = ((0, "depart", "pr"), (5, "depart", "ll"), (9, "restart", "pr"), (14, "restart", "ll"))
CHURN_FAULTS = {"aborted_sync": 0.2, "lost_async": 0.25, "poisoned_shadow": 0.2}
#: hugeheap: the Table 2 mix admitted at epoch 0 at a 2 MB page unit, so
#: setup faults in 81k pages; admission dominates it.  Finer units make
#: peak RSS and speed depend on the seed (see bench/README.md).
HUGEHEAP = {"epochs": 21, "warmup": 5, "accesses": 20_000, "page_unit_bytes": 2_000_000}
#: fleet: drain_rebalance run serially; round 0 is setup.
FLEET = {"rounds": 20}

#: the windows a stamp may open; the setup window is open from the start
WARMUP, MEASURED, POST = "warmup", "measured", "post"


@dataclass
class Rep:
    """What one repetition of one workload measured and computed."""

    setup_ns: int
    steady_ns: int
    #: measured epochs (node-epochs on the fleet)
    epochs: int
    #: host ms of each measured epoch (of each measured round on the fleet)
    epoch_ms: list[float]
    #: epochs each ``epoch_ms`` sample covers (node-epochs of the round on the fleet)
    epoch_units: list[int]
    #: sha256 of the simulated result's canonical JSON
    digest: str
    #: simulated metrics; deterministic for a given seed
    sim: dict[str, float]


class SetupDone(Exception):
    """Ends a ``setup_only`` run at the end of its setup window."""

    def __init__(self, setup_ns: int) -> None:
        super().__init__(f"setup took {setup_ns} ns")
        self.setup_ns = setup_ns


class Timeline:
    """Epoch-boundary stamps; stamp ``i`` may open the window ``opens[i]``.

    With ``setup_only``, stamp ``setup_end`` raises :class:`SetupDone`.
    """

    def __init__(self, opens: dict[int, str], tracer: Tracer | None, *, setup_end: int, setup_only: bool) -> None:
        self.opens = opens
        self.tracer = tracer
        self.stop_at = setup_end if setup_only else None
        self.stamps: list[int] = []
        #: the constructor call: setup starts here
        self.t0 = time.perf_counter_ns()

    def mark(self) -> None:
        self.stamps.append(time.perf_counter_ns())
        index = len(self.stamps) - 1
        if index == self.stop_at:
            raise SetupDone(self.stamps[-1] - self.t0)
        window = self.opens.get(index)
        if window is not None and self.tracer is not None:
            self.tracer.window = window

    def stamp_calls(self, obj, attr: str, *, before: bool) -> None:
        """Mark a boundary on each call of ``obj.attr`` (an instance wrapper)."""
        fn = getattr(obj, attr)

        def stamped(*args, **kwargs):
            if before:
                self.mark()
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            self.mark()
            return result

        setattr(obj, attr, stamped)


def _digest(payload: str) -> str:
    return hashlib.sha256(payload.encode()).hexdigest()


def _min_fthr(per_tenant: dict[str, list[float]]) -> float:
    """Lowest mean hit ratio among tenants: the "no one behind" number."""
    return min(float(np.mean(v)) for v in per_tenant.values())


def _run_epochs(build, epochs: int, warmup: int, tracer: Tracer | None, cfi, setup_only: bool) -> Rep:
    """Run a single-box experiment; epoch 0 is setup, ``warmup`` counts it."""
    from repro.fuzz.oracle import InvariantOracle

    with tracer if tracer is not None else contextlib.nullcontext():
        # A dict literal keeps the last duplicate key: warmup == 1 opens MEASURED at 0.
        timeline = Timeline({0: WARMUP, warmup - 1: MEASURED, epochs - 1: POST}, tracer,
                            setup_end=0, setup_only=setup_only)
        exp = build()
        timeline.stamp_calls(exp.policy, "end_epoch", before=False)
        result = exp.run(epochs)
    InvariantOracle().check_final(exp, result)

    stamps = timeline.stamps
    steady = stamps[warmup - 1:epochs]
    tenants: dict[str, list[float]] = {}
    stall = 0.0
    for ts in result.workloads.values():
        for epoch, fthr, cycles in zip(ts.epochs, ts.fthr_true, ts.stall_cycles):
            if epoch >= warmup:
                tenants.setdefault(ts.name, []).append(fthr)
                stall += cycles
    measured = epochs - warmup
    return Rep(
        setup_ns=stamps[0] - timeline.t0,
        steady_ns=steady[-1] - steady[0],
        epochs=measured,
        epoch_ms=(np.diff(steady) / 1e6).tolist(),
        epoch_units=[1] * measured,
        digest=_digest(json.dumps(result.to_dict(), sort_keys=True)),
        sim={
            "cfi": cfi(result),
            "sim.min_fthr": _min_fthr(tenants),
            "sim.migration_cycles": float(np.mean(result.migration_cycles[warmup:epochs])),
            "sim.stall_cycles": stall / measured,
        },
    )


def run_colocation(seed: int, tracer: Tracer | None = None, *, setup_only: bool = False,
                   epochs: int = COLOCATION["epochs"], warmup: int = COLOCATION["warmup"],
                   accesses: int = COLOCATION["accesses"]) -> Rep:
    from repro.harness.experiment import ColocationExperiment
    from repro.harness.recipes import steady_cfi
    from repro.sim.config import SimulationConfig
    from repro.workloads.mixes import paper_colocation_mix

    sim = SimulationConfig(epoch_seconds=2.0)
    mix = paper_colocation_mix(sim, seed=seed, accesses_per_thread=accesses)
    return _run_epochs(
        lambda: ColocationExperiment("vulcan", mix, sim=sim, seed=seed),
        epochs, warmup, tracer, steady_cfi, setup_only,
    )


def churn_spec(seed: int, epochs: int = CHURN["epochs"]):
    """The churn timeline: canned tenants at 2x RSS, faults on from epoch 8."""
    from repro.scenario.library import churn
    from repro.scenario.spec import ScenarioEvent, ScenarioSpec

    tenants = tuple(replace(d, rss_pages=2 * d.rss_pages) for d in churn().workloads)
    events = [ScenarioEvent(epoch=8, action="faults_set", params=dict(CHURN_FAULTS))]
    events += [
        ScenarioEvent(epoch=start + offset, action=action, target=target)
        for start in range(15, epochs, 20)
        for offset, action, target in CHURN_CYCLE
        if start + offset < epochs
    ]
    return ScenarioSpec(
        name="bench-churn", n_epochs=epochs, workloads=tenants, events=tuple(events), seed=seed,
    ).validate()


def run_churn(seed: int, tracer: Tracer | None = None, *, setup_only: bool = False,
              epochs: int = CHURN["epochs"], warmup: int = CHURN["warmup"]) -> Rep:
    from repro.metrics.fairness import churn_fairness
    from repro.scenario.engine import ScenarioExperiment

    spec = churn_spec(seed, epochs)
    return _run_epochs(
        lambda: ScenarioExperiment(spec),
        epochs, warmup, tracer, lambda result: churn_fairness(result, window=10)["mean_cfi"], setup_only,
    )


def run_hugeheap(seed: int, tracer: Tracer | None = None, *, setup_only: bool = False,
                 epochs: int = HUGEHEAP["epochs"], warmup: int = HUGEHEAP["warmup"],
                 accesses: int = HUGEHEAP["accesses"], page_unit_bytes: int = HUGEHEAP["page_unit_bytes"]) -> Rep:
    from repro.harness.experiment import ColocationExperiment
    from repro.harness.recipes import steady_cfi
    from repro.sim.config import SimulationConfig
    from repro.workloads.mixes import hugeheap_mix

    sim = SimulationConfig(epoch_seconds=2.0, page_unit_bytes=page_unit_bytes)
    mix = hugeheap_mix(sim, seed=seed, accesses_per_thread=accesses)
    return _run_epochs(
        lambda: ColocationExperiment("vulcan", mix, sim=sim, seed=seed),
        epochs, warmup, tracer, steady_cfi, setup_only,
    )


def run_fleet(seed: int, tracer: Tracer | None = None, *, setup_only: bool = False,
              rounds: int = FLEET["rounds"]) -> Rep:
    from repro.fleet import FleetExperiment, get_fleet_scenario
    from repro.fuzz.oracle import check_fleet_round

    spec = get_fleet_scenario("drain_rebalance").with_overrides(seed=seed, n_rounds=rounds)
    with tracer if tracer is not None else contextlib.nullcontext():
        # Stamp i is the start of round i; the last stamp ends the run.
        timeline = Timeline({1: MEASURED, rounds: POST}, tracer, setup_end=1, setup_only=setup_only)
        fx = FleetExperiment(spec, workers=1)
        timeline.stamp_calls(fx.placer, "assign", before=True)
        res = fx.run()
        timeline.mark()
    for record in res.rounds:
        check_fleet_round(record, set(fx.defs))

    stamps = timeline.stamps
    per_round = [sum(1 for n in r["nodes"] if n["workloads"]) * spec.epochs_per_round for r in res.rounds]
    node_epochs = sum(per_round[1:])
    tenants: dict[str, list[float]] = {}
    for record in res.rounds[1:]:
        for node in record["nodes"]:
            for w in node["workloads"]:
                tenants.setdefault(w["key"], []).append(w["mean_fthr"])
    moved = [m for m in res.moves if m.round >= 1]
    return Rep(
        setup_ns=stamps[1] - timeline.t0,
        steady_ns=stamps[-1] - stamps[1],
        epochs=node_epochs,
        epoch_ms=(np.diff(stamps[1:]) / 1e6).tolist(),
        epoch_units=per_round[1:],
        digest=_digest(res.canonical_json()),
        sim={
            "cfi": res.fleet_cfi(),
            "sim.min_fthr": _min_fthr(tenants),
            "fleet.vs_oracle": res.summary()["vs_oracle"],
            "fleet.moves": len(moved),
            "fleet.cross_node_pages": sum(m.pages for m in moved if m.src is not None),
        },
    )


WORKLOADS = {
    "colocation": run_colocation,
    "churn": run_churn,
    "hugeheap": run_hugeheap,
    "fleet": run_fleet,
}
