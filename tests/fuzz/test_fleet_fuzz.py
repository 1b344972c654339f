"""Fleet fuzzing: generator validity, conservation oracle, campaign
determinism, and crasher promotion round-trips."""

from __future__ import annotations

import copy
import json

import pytest

from repro.fleet.node import node_workload_slots
from repro.fuzz.oracle import InvariantViolation, check_fleet_round
from repro.fuzz.promote import iter_crashers, load_crasher, promote_crasher
from repro.fuzz.runner import FLEET, SCENARIO, campaign, run_case_record
from repro.fuzz.strategies import FleetFuzzCase, generate_fleet_case

N_GEN = 10


class TestGenerator:
    def test_cases_are_valid_by_construction(self):
        for i in range(N_GEN):
            case = generate_fleet_case(3, i)
            # validate() raises on any illegal spec; chaining returns self
            assert case.spec.validate() is not None

    def test_pure_function_of_seed_pair(self):
        for i in range(N_GEN):
            a = generate_fleet_case(3, i)
            b = generate_fleet_case(3, i)
            assert a.spec.content_hash() == b.spec.content_hash()

    def test_different_indices_differ(self):
        hashes = {generate_fleet_case(3, i).spec.content_hash() for i in range(N_GEN)}
        assert len(hashes) > 1

    def test_round_trip(self):
        case = generate_fleet_case(3, 1)
        again = FleetFuzzCase.from_dict(json.loads(json.dumps(case.to_dict())))
        assert again.spec.content_hash() == case.spec.content_hash()
        assert (again.index, again.master_seed) == (case.index, case.master_seed)

    def test_drains_never_exceed_slot_capacity(self):
        slots = node_workload_slots()
        for i in range(N_GEN):
            spec = generate_fleet_case(3, i).spec
            active = set(spec.initially_active())
            events = sorted(spec.events, key=lambda e: (e.round, e.action, e.node or ""))
            for ev in events:
                if ev.action == "node_drain":
                    active.discard(ev.node)
                elif ev.action == "node_join":
                    active.add(ev.node)
                assert len(active) * slots >= len(spec.workloads)


class TestFleetConservation:
    """One corrupted record per detection branch of check_fleet_round."""

    KEYS = {"a", "b"}

    @pytest.fixture
    def record(self):
        return {
            "round": 1,
            "active": ["n0", "n1"],
            "assignment": {"a": "n0", "b": "n1"},
            "nodes": [
                {"node_id": "n0", "fast_capacity_pages": 400,
                 "free_fast_pages": 100, "workloads": [{"key": "a"}]},
                {"node_id": "n1", "fast_capacity_pages": 400,
                 "free_fast_pages": 300, "workloads": [{"key": "b"}]},
            ],
        }

    def test_clean_record_passes(self, record):
        check_fleet_round(record, self.KEYS)

    def test_lost_workload_detected(self, record):
        bad = copy.deepcopy(record)
        del bad["assignment"]["b"]
        with pytest.raises(InvariantViolation, match="workload set changed"):
            check_fleet_round(bad, self.KEYS)

    def test_extra_workload_detected(self, record):
        bad = copy.deepcopy(record)
        bad["assignment"]["ghost"] = "n0"
        with pytest.raises(InvariantViolation, match="workload set changed"):
            check_fleet_round(bad, self.KEYS)

    def test_assignment_to_inactive_node_detected(self, record):
        bad = copy.deepcopy(record)
        bad["active"] = ["n0"]
        bad["nodes"] = bad["nodes"][:1]
        with pytest.raises(InvariantViolation, match="inactive node"):
            check_fleet_round(bad, self.KEYS)

    def test_telemetry_from_inactive_node_detected(self, record):
        bad = copy.deepcopy(record)
        bad["nodes"].append({
            "node_id": "n9", "fast_capacity_pages": 400,
            "free_fast_pages": 400, "workloads": [],
        })
        with pytest.raises(InvariantViolation, match="telemetry from inactive"):
            check_fleet_round(bad, self.KEYS)

    def test_used_pages_out_of_range_detected(self, record):
        bad = copy.deepcopy(record)
        bad["nodes"][0]["free_fast_pages"] = 500  # used would be negative
        with pytest.raises(InvariantViolation, match="used pages"):
            check_fleet_round(bad, self.KEYS)

    def test_hosted_vs_assigned_mismatch_detected(self, record):
        bad = copy.deepcopy(record)
        bad["nodes"][0]["workloads"] = []  # n0 hosts nothing but owns "a"
        with pytest.raises(InvariantViolation, match="assigned"):
            check_fleet_round(bad, self.KEYS)

    def test_violation_carries_stable_check_id(self, record):
        bad = copy.deepcopy(record)
        del bad["assignment"]["b"]
        with pytest.raises(InvariantViolation) as exc_info:
            check_fleet_round(bad, self.KEYS)
        assert exc_info.value.to_dict()["check"] == "fleet_conservation"


RUNS = 2


@pytest.fixture(scope="module")
def small_report() -> dict:
    return campaign(kind=FLEET, seed=13, runs=RUNS, workers=1)


class TestFleetCampaign:
    def test_same_seed_identical_report(self, small_report):
        again = campaign(kind=FLEET, seed=13, runs=RUNS, workers=1)
        assert json.dumps(again, sort_keys=True) == json.dumps(small_report, sort_keys=True)

    def test_serial_equals_two_workers(self, small_report):
        par = campaign(kind=FLEET, seed=13, runs=RUNS, workers=2)
        a = {**small_report, "workers": 0}
        b = {**par, "workers": 0}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_records_match_standalone_execution(self, small_report):
        rec = run_case_record(FLEET, generate_fleet_case(13, 0))
        assert rec == small_report["cases"][0]

    def test_report_shape(self, small_report):
        assert small_report["mode"] == "fleet"
        assert [r["index"] for r in small_report["cases"]] == list(range(RUNS))
        for rec in small_report["cases"]:
            assert rec["status"] in ("ok", "violation")
            assert rec["spec_hash"] == generate_fleet_case(13, rec["index"]).spec.content_hash()

    def test_no_wall_clock_anywhere_in_report(self, small_report):
        blob = json.dumps(small_report)
        for needle in ("elapsed", "duration", "wall"):
            assert needle not in blob.lower()


class TestPromotion:
    FINDING = {"check": "fleet_conservation", "epoch": None, "message": "m", "context": {}}

    def test_round_trip(self, tmp_path):
        case = generate_fleet_case(3, 0)
        path = promote_crasher(FLEET, case, self.FINDING, tmp_path)
        assert path.name == f"fleet_crasher_{case.spec.content_hash()[:12]}.json"
        loaded, violation = load_crasher(FLEET, path)
        assert loaded.spec.content_hash() == case.spec.content_hash()
        assert violation == self.FINDING

    def test_promotion_is_idempotent(self, tmp_path):
        case = generate_fleet_case(3, 0)
        first = promote_crasher(FLEET, case, self.FINDING, tmp_path)
        second = promote_crasher(FLEET, case, self.FINDING, tmp_path)
        assert first == second
        assert len(iter_crashers(FLEET, tmp_path)) == 1

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "fleet_crasher_deadbeef.json"
        path.write_text('{"format": "fuzz-crasher-v1"}')
        with pytest.raises(ValueError, match="not a fleet-crasher-v1"):
            load_crasher(FLEET, path)

    def test_globs_do_not_cross_contaminate(self, tmp_path):
        case = generate_fleet_case(3, 0)
        promote_crasher(FLEET, case, self.FINDING, tmp_path)
        (tmp_path / "crasher_0123456789ab.json").write_text("{}")
        assert len(iter_crashers(FLEET, tmp_path)) == 1
        assert [p.name for p in iter_crashers(SCENARIO, tmp_path)] == ["crasher_0123456789ab.json"]

    def test_missing_dir_is_empty(self, tmp_path):
        assert iter_crashers(FLEET, tmp_path / "nope") == []
