"""Campaign determinism, worker equivalence, and the ``repro fuzz`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main
from repro.fuzz.runner import SCENARIO, campaign, run_case_record
from repro.fuzz.strategies import generate_case
from repro.obs.metrics import get_registry

RUNS = 4


@pytest.fixture(scope="module")
def small_report() -> dict:
    return campaign(seed=13, runs=RUNS, workers=1)


class TestCampaignDeterminism:
    def test_same_seed_identical_report(self, small_report):
        again = campaign(seed=13, runs=RUNS, workers=1)
        assert json.dumps(again, sort_keys=True) == json.dumps(small_report, sort_keys=True)

    def test_serial_equals_two_workers(self, small_report):
        par = campaign(seed=13, runs=RUNS, workers=2)
        a = {**small_report, "workers": 0}
        b = {**par, "workers": 0}
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_report_carries_per_case_records_in_order(self, small_report):
        assert [r["index"] for r in small_report["cases"]] == list(range(RUNS))
        for rec in small_report["cases"]:
            assert rec["status"] in ("ok", "violation")
            assert rec["spec_hash"] == generate_case(13, rec["index"]).spec.content_hash()

    def test_record_is_replayable_standalone(self, small_report):
        rec = run_case_record(SCENARIO, generate_case(13, 2))
        assert rec == small_report["cases"][2]

    def test_no_wall_clock_anywhere_in_report(self, small_report):
        blob = json.dumps(small_report)
        for needle in ("time", "elapsed", "duration", "wall"):
            assert needle not in blob.lower()


class TestObsMetrics:
    @pytest.fixture
    def registry(self):
        reg = get_registry()
        was_enabled = reg.enabled
        reg.enabled = True
        reg.reset()
        yield reg
        reg.enabled = was_enabled
        reg.reset()

    def test_campaign_bumps_counters(self, registry):
        campaign(seed=21, runs=2, workers=1)
        assert registry.counter("fuzz_runs_total", status="ok").value == 2


class TestCli:
    def test_parser_accepts_documented_flags(self):
        args = build_parser().parse_args(
            ["fuzz", "--seed", "3", "--runs", "2", "--max-epochs", "10",
             "--workers", "2", "--json"]
        )
        assert (args.seed, args.runs, args.max_epochs, args.workers) == (3, 2, 10, 2)
        assert args.promote is None

    def test_promote_flag_defaults_to_golden_dir(self):
        args = build_parser().parse_args(["fuzz", "--promote"])
        assert args.promote == "tests/golden/fuzz_regressions"

    def test_clean_run_exits_zero_and_emits_deterministic_json(self, capsys):
        rc1 = main(["fuzz", "--runs", "2", "--seed", "13", "--json"])
        out1 = capsys.readouterr().out
        rc2 = main(["fuzz", "--runs", "2", "--seed", "13", "--json"])
        out2 = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert out1 == out2
        report = json.loads(out1)
        assert report["clean"] is True
        assert report["counts"]["ok"] == 2

    def test_replay_of_empty_dir_is_green(self, tmp_path, capsys):
        assert main(["fuzz", "--replay", str(tmp_path)]) == 0
        assert "no promoted crashers" in capsys.readouterr().out
