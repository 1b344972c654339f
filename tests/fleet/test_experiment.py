"""Fleet loop end-to-end: determinism under the oracle, drains, oracle gap."""

from __future__ import annotations

import pytest

from repro.fleet import (
    FleetEvent,
    FleetExperiment,
    FleetSpec,
    NodeDef,
    get_fleet_scenario,
    oracle_assignment,
    placement_score,
    run_fleet,
)
from repro.fleet.node import node_capacity_pages, node_workload_slots
from repro.fleet.placer import make_placer
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer
from repro.scenario.spec import WorkloadDef


def _wl(key: str, rss: int, service: str = "BE") -> WorkloadDef:
    return WorkloadDef(
        key=key, kind="microbench", service=service, rss_pages=rss,
        n_threads=1, start_epoch=0, accesses_per_thread=400,
    )


def _small_fleet(**over) -> FleetSpec:
    base = dict(
        name="small",
        n_rounds=3,
        epochs_per_round=2,
        nodes=(NodeDef("n0", 4.0), NodeDef("n1", 4.0), NodeDef("n2", 4.0)),
        workloads=(_wl("a", 200, "LC"), _wl("b", 150), _wl("c", 120), _wl("d", 90)),
        events=(),
        seed=11,
    )
    base.update(over)
    return FleetSpec(**base).validate()


@pytest.fixture(scope="module")
def serial_result():
    return run_fleet(_small_fleet())


class TestDeterminism:
    def test_check_does_not_change_the_result(self):
        """Arming the oracle must not move any node round's seed."""
        spec = _small_fleet(events=(
            FleetEvent(round=1, action="node_drain", node="n0"),
        ))
        plain = run_fleet(spec)
        assert run_fleet(spec, check=True).canonical_json() == plain.canonical_json()

    def test_node_rounds_run_in_process_only(self):
        with pytest.raises(ValueError, match="workers must be 1"):
            FleetExperiment(_small_fleet(), workers=2)


class TestSummary:
    def test_summary_reports_fleet_metrics(self, serial_result):
        s = serial_result.summary()
        assert 0.0 <= s["fleet_cfi"] <= 1.0
        assert s["n_nodes"] == 3 and s["n_workloads"] == 4
        assert s["node_epochs"] == 3 * 3 * 2  # rounds x nodes-hosting x epochs
        assert s["vs_oracle"] is None or 0.0 <= s["vs_oracle"] <= 1.0

    def test_round_records_conserve_workloads(self, serial_result):
        for rec in serial_result.to_dict()["rounds"]:
            assert sorted(rec["assignment"]) == ["a", "b", "c", "d"]


class TestDrainEvacuation:
    """ISSUE acceptance: a drain always fully evacuates — nothing stays
    on the drained node, everything is re-placed in the same round."""

    @pytest.fixture(scope="class")
    def drained(self):
        spec = _small_fleet(events=(
            FleetEvent(round=1, action="node_drain", node="n0"),
        ))
        return run_fleet(spec).to_dict()

    def test_drained_node_leaves_active_set(self, drained):
        for rec in drained["rounds"]:
            if rec["round"] >= 1:
                assert "n0" not in rec["active"]

    def test_no_workload_left_behind(self, drained):
        for rec in drained["rounds"]:
            if rec["round"] >= 1:
                assert all(node != "n0" for node in rec["assignment"].values())

    def test_every_resident_evacuated_same_round(self, drained):
        residents = {
            k for k, n in drained["rounds"][0]["assignment"].items() if n == "n0"
        }
        evac = [m for m in drained["moves"] if m["reason"] == "evacuation"]
        assert {m["key"] for m in evac} == residents
        assert all(m["round"] == 1 and m["src"] == "n0" for m in evac)

    def test_evacuations_carry_cross_node_cost(self, drained):
        for m in drained["moves"]:
            if m["reason"] == "evacuation":
                assert m["cycles"] == m["pages"] * 40_000 > 0

    def test_each_drain_event_counts_its_own_residents(self):
        """Two drains in one round: each event reports only the residents
        of the node it drains, not the round's running total."""
        spec = _small_fleet(
            workloads=(_wl("a", 200, "LC"), _wl("b", 150), _wl("c", 120)),
            events=(
                FleetEvent(round=1, action="node_drain", node="n0"),
                FleetEvent(round=1, action="node_drain", node="n1"),
            ),
        )
        tracer = get_tracer()
        tracer.enable()
        try:
            res = run_fleet(spec)
            drains = {
                e.args["node"]: e.args["evacuating"] for e in tracer.events()
                if e.kind is EventKind.FLEET_NODE_CHANGE and e.name == "node_drain"
            }
        finally:
            tracer.disable()
            tracer.reset()
        before = res.rounds[0]["assignment"].values()
        residents = {n: sum(node == n for node in before) for n in ("n0", "n1")}
        assert min(residents.values()) >= 1, residents
        assert drains == residents


class TestOracleDominance:
    """ISSUE acceptance: the oracle scores >= every heuristic on the
    pinned 3-node / 6-workload case (same objective by construction)."""

    DEMANDS = {"mc-a": 320, "mc-b": 240, "ms-a": 150, "pr-a": 260, "ll-a": 200, "ll-b": 120}
    CAPS = {
        "n0": node_capacity_pages(4.0),
        "n1": node_capacity_pages(4.0),
        "n2": node_capacity_pages(8.0),
    }

    def test_oracle_at_least_every_heuristic(self):
        slots = node_workload_slots()
        _, best = oracle_assignment(self.DEMANDS, self.CAPS, max_per_node=slots)
        for name in ("greedy-free-dram", "credit-balance"):
            out = make_placer(name).assign(
                demands=self.DEMANDS, capacities=self.CAPS,
                current={k: None for k in self.DEMANDS}, telemetry={},
            )
            assert placement_score(out, self.DEMANDS, self.CAPS) <= best + 1e-12


class TestObsRegistry:
    """Satellite 1: the fleet loop feeds the process-wide metrics
    registry — counters for moves/rounds, gauges for node state."""

    @pytest.fixture
    def registry(self):
        from repro.obs.metrics import get_registry

        reg = get_registry()
        was_enabled = reg.enabled
        reg.enabled = True
        reg.reset()
        yield reg
        reg.enabled = was_enabled
        reg.reset()

    def test_fleet_run_bumps_counters_and_gauges(self, registry):
        spec = _small_fleet(events=(
            FleetEvent(round=1, action="node_drain", node="n0"),
        ))
        run_fleet(spec)
        collected = registry.collect()
        counter_names = {m["name"] for m in collected["counters"]}
        assert "fleet_rounds_total" in counter_names
        assert "fleet_placements_total" in counter_names
        assert "fleet_evacuations_total" in counter_names
        gauge_names = {m["name"] for m in collected["gauges"]}
        assert "fleet_node_free_pages" in gauge_names
        changes = [m for m in collected["counters"] if m["name"] == "fleet_node_changes"]
        assert any(m["labels"].get("change") == "drain" for m in changes)


class TestCannedScenarios:
    def test_canned_fleets_validate(self):
        for name in ("balanced_trio", "drain_rebalance", "flash_crowd_fleet"):
            spec = get_fleet_scenario(name)
            assert spec.validate() is spec or spec.validate() is not None

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_fleet_scenario("bogus")
