"""A traced run's event stream is a complete record of its migrations.

The typed event stream is the only record a traced run keeps, so it must
miss nothing the migration engines count.  For every live pid:

* the ``MIGRATION_PHASE`` durations of each phase, summed in stream
  order, equal ``MigrationStats.phase_cycles`` exactly;
* the migration ``FAULT_INJECTED`` events of each kind equal
  ``MigrationStats.faults_injected``;

and the ring buffer dropped nothing.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro.harness import ColocationExperiment
from repro.harness.recipes import make_mix
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer
from repro.scenario.engine import ScenarioExperiment
from repro.scenario.library import get_scenario
from repro.sim.config import SimulationConfig


def _vulcan_paper() -> ColocationExperiment:
    sim = SimulationConfig(epoch_seconds=2.0)
    exp = ColocationExperiment("vulcan", make_mix("paper", sim, 800, 3), sim=sim, seed=3)
    exp.run(4)
    return exp


def _scenario(name: str):
    def run() -> ScenarioExperiment:
        exp = ScenarioExperiment(get_scenario(name))
        exp.run()
        return exp

    return run


CASES = {
    "vulcan_paper": _vulcan_paper,
    "churn": _scenario("churn"),
    "fault_storm": _scenario("fault_storm"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_event_stream_accounts_for_every_engine_charge(case):
    tracer = get_tracer()
    tracer.enable()
    try:
        exp = CASES[case]()
        events = tracer.events()
        dropped = tracer.buffer.dropped
    finally:
        tracer.disable()
        tracer.buffer.clear()
    assert dropped == 0

    phase_sums: dict[tuple[int, str], float] = defaultdict(float)
    faults: Counter = Counter()
    for e in events:
        if e.kind is EventKind.MIGRATION_PHASE:
            phase_sums[(e.pid, e.args["phase"])] += e.dur
        elif e.kind is EventKind.FAULT_INJECTED and "vpn" in e.args:
            faults[(e.pid, e.args["kind"])] += 1

    live = exp.policy.workloads
    assert live
    for pid, rt in live.items():
        stats = rt.engine.stats
        for phase, cycles in stats.phase_cycles.items():
            assert phase_sums.get((pid, phase), 0.0) == cycles, (pid, phase)
        traced_faults = {kind: n for (p, kind), n in faults.items() if p == pid}
        assert traced_faults == stats.faults_injected, pid
    assert sum(rt.engine.stats.total_cycles for rt in live.values()) > 0
    if case != "vulcan_paper":
        assert sum(faults.values()) > 0
