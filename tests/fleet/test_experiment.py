"""Fleet loop end-to-end: determinism under the oracle, drains, oracle gap."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

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
            tracer.buffer.clear()
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


def _count_searches(monkeypatch, module) -> list:
    """Wrap ``module.oracle_assignment`` in a call counter."""
    calls: list = []
    real = module.oracle_assignment

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, "oracle_assignment", counted)
    return calls


class TestOracleMemo:
    """The oracle is a pure function of (demands, capacities), so a fleet
    searches once per distinct input and a round's oracle fields are
    still exactly what a direct search gives."""

    @pytest.mark.parametrize("name, searches", [
        ("drain_rebalance", 3),  # 3 nodes, then 2 after the drain, then 3 after the join
        ("flash_crowd_fleet", 2),  # base demands, then crowded, then base again
    ])
    def test_one_search_per_distinct_input(self, monkeypatch, name, searches):
        import repro.fleet.experiment as experiment

        spec = get_fleet_scenario(name).with_overrides(n_rounds=20)
        calls = _count_searches(monkeypatch, experiment)
        res = run_fleet(spec)
        assert len(calls) == searches

        fast_gb = {n.node_id: n.fast_gb for n in spec.nodes}
        for rec in res.rounds:
            caps = {n: node_capacity_pages(fast_gb[n]) for n in rec["active"]}
            _, best = oracle_assignment(rec["demands"], caps, max_per_node=node_workload_slots())
            assert rec["oracle_score"] == best
            assert rec["vs_oracle"] == (1.0 if best == 0.0 else rec["score"] / best)
            assert rec["oracle_score"] >= rec["score"]
            assert 0.0 <= rec["vs_oracle"] <= 1.0

    def test_refused_search_records_none_every_round(self, monkeypatch):
        import repro.fleet.experiment as experiment

        # 3 nodes ^ 12 workloads = 531,441 candidates > ORACLE_MAX_ASSIGNMENTS
        spec = _small_fleet(
            n_rounds=3, epochs_per_round=1,
            workloads=tuple(_wl(f"w{i:02d}", 30) for i in range(12)),
        )
        calls = _count_searches(monkeypatch, experiment)
        res = run_fleet(spec)
        assert len(calls) == 1  # the refusal is remembered too
        for rec in res.rounds:
            assert rec["oracle_score"] is None and rec["vs_oracle"] is None
            assert 0.0 <= rec["score"] <= 1.0

    def test_oracle_placer_searches_once_and_serves_copies(self, monkeypatch):
        import repro.fleet.placer as placer_module

        demands = TestOracleDominance.DEMANDS
        caps = TestOracleDominance.CAPS
        calls = _count_searches(monkeypatch, placer_module)
        placer = make_placer("oracle")
        inputs = dict(demands=demands, capacities=caps,
                      current={k: None for k in demands}, telemetry={})
        first = placer.assign(**inputs)
        want = dict(first)
        first["mc-a"] = "elsewhere"
        second = placer.assign(**inputs)
        assert len(calls) == 1
        assert second == want
        assert want == oracle_assignment(demands, caps, max_per_node=node_workload_slots())[0]


class TestTracedRecord:
    """A traced fleet's event stream is a complete record: every sync
    round and every move the result holds, with the same pages and
    cycles."""

    def test_events_match_rounds_and_moves(self):
        spec = _small_fleet(events=(
            FleetEvent(round=1, action="node_drain", node="n0"),
        ))
        tracer = get_tracer()
        tracer.enable()
        try:
            res = run_fleet(spec)
            events = tracer.events()
            dropped = tracer.buffer.dropped
        finally:
            tracer.disable()
            tracer.buffer.clear()
        assert dropped == 0
        rounds = [e.args["round"] for e in events if e.kind is EventKind.FLEET_ROUND]
        assert rounds == list(range(spec.n_rounds)) == [r["round"] for r in res.rounds]

        reason_of = {
            EventKind.FLEET_PLACEMENT: "placement",
            EventKind.FLEET_MIGRATION: "rebalance",
            EventKind.FLEET_EVACUATION: "evacuation",
        }
        moves = [e for e in events if e.kind in reason_of]
        assert all(e.name == reason_of[e.kind] for e in moves)
        traced = [
            (e.args["round"], e.args["key"], e.name, e.args["src"], e.args["dst"],
             e.args["pages"], e.args["cycles"])
            for e in moves
        ]
        recorded = [
            (m.round, m.key, m.reason, m.src, m.dst, m.pages, m.cycles) for m in res.moves
        ]
        assert traced == recorded
        assert {"placement", "evacuation"} <= {m.reason for m in res.moves}
        drains = [e for e in events if e.kind is EventKind.FLEET_NODE_CHANGE]
        assert [(e.name, e.args["node"]) for e in drains] == [("node_drain", "n0")]


class TestCannedScenarios:
    def test_canned_fleets_validate(self):
        for name in ("balanced_trio", "drain_rebalance", "flash_crowd_fleet"):
            spec = get_fleet_scenario(name)
            assert spec.validate() is spec or spec.validate() is not None

    def test_unknown_scenario_raises(self):
        with pytest.raises(KeyError):
            get_fleet_scenario("bogus")


def test_node_round_leaves_numpy_ma_unimported():
    """One node round, in a fresh process, must not import ``numpy.ma``:
    every round's frame-conservation check runs inside the fleet's setup
    window, and ``np.unique``'s hash path imports it on first use."""
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    code = textwrap.dedent("""
        import sys
        from repro.fleet.node import run_node_round
        from repro.scenario.spec import WorkloadDef
        wls = [
            WorkloadDef(key=k, kind="microbench", service=s, rss_pages=r,
                        n_threads=1, accesses_per_thread=400)
            for k, s, r in (("a", "LC", 200), ("b", "BE", 150))
        ]
        run_node_round(node_id="n0", round_index=0, fast_gb=4.0, epochs=2,
                       policy="vulcan", workloads=wls, seed=11)
        print("numpy.ma" in sys.modules)
    """)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
