"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_costs_command(capsys):
    assert main(["costs", "--cpus", "2", "32"]) == 0
    out = capsys.readouterr().out
    assert "50000" in out and "750000" in out
    assert "38.3%" in out and "76.9%" in out


def test_run_command_dilemma(capsys):
    assert main(["run", "--mix", "dilemma", "--policy", "none", "--epochs", "3", "--accesses", "1000"]) == 0
    out = capsys.readouterr().out
    assert "memcached" in out and "liblinear" in out
    assert "CFI" in out


def test_compare_command(capsys):
    rc = main([
        "compare", "--policies", "none", "uniform",
        "--mix", "dilemma", "--epochs", "3", "--accesses", "1000",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "normalized" in out
    assert "fairness" in out


def test_unknown_policy_rejected():
    with pytest.raises(SystemExit):
        main(["compare", "--policies", "bogus", "--epochs", "1"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_rejects_unknown_mix():
    with pytest.raises(SystemExit):
        main(["run", "--mix", "bogus"])


def test_run_json_output(capsys):
    assert main([
        "run", "--mix", "dilemma", "--policy", "none",
        "--epochs", "3", "--accesses", "1000", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["policy"] == "none"
    assert payload["mix"] == "dilemma"
    assert "cfi" in payload
    assert set(payload["workloads"]) == {"memcached", "liblinear"}
    assert len(payload["workloads"]["memcached"]["ops"]) == 3


def test_compare_json_output(capsys):
    assert main([
        "compare", "--policies", "none", "uniform",
        "--mix", "dilemma", "--epochs", "3", "--accesses", "1000", "--json",
    ]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["fairness_cfi"]) == {"none", "uniform"}
    assert set(payload["policies"]) == {"none", "uniform"}
    assert "memcached" in payload["normalized_perf"]


def test_run_trace_then_summarize(capsys, tmp_path):
    from repro.obs.trace import get_tracer

    trace_path = tmp_path / "t.json"
    assert main([
        "run", "--mix", "dilemma", "--policy", "vulcan",
        "--epochs", "4", "--accesses", "1000", "--trace", str(trace_path),
    ]) == 0
    assert not get_tracer().enabled  # CLI turns tracing back off
    capsys.readouterr()
    doc = json.loads(trace_path.read_text())
    assert doc["traceEvents"]

    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "migration cycles by phase" in out
    assert "TLB shootdown scope histogram" in out
    assert "CBFRP credit timeline" in out


def test_compare_trace_writes_per_policy_files(capsys, tmp_path):
    trace_path = tmp_path / "c.json"
    assert main([
        "compare", "--policies", "tpp", "vulcan",
        "--mix", "dilemma", "--epochs", "3", "--accesses", "800",
        "--trace", str(trace_path),
    ]) == 0
    assert (tmp_path / "c.tpp.json").exists()
    assert (tmp_path / "c.vulcan.json").exists()


def test_trace_command_rejects_empty_file(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    assert main(["trace", str(empty)]) == 1
    assert "no trace events" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"kind": "epoch", "name": "epoch", "ts": 0.0, "dur": 0.0, "pid": null, "args": {}}\n'
    '{"kind": "span", "name": "migrate_batch", "ts": 5.0, "dur": 2.0, "pid": 100, "args": {}}\n',
    "not a trace at all\n",
], ids=["jsonl", "garbage"])
def test_trace_command_rejects_a_file_that_is_not_a_chrome_trace(tmp_path, text):
    bad = tmp_path / "bad.jsonl"
    bad.write_text(text)
    with pytest.raises(SystemExit, match="is not a trace written by --trace"):
        main(["trace", str(bad)])


SWEEP_BASE = [
    "sweep", "--policy", "none", "--mix", "dilemma",
    "--epochs", "3", "--accesses", "800",
    "--fast-gb", "4", "8", "--seeds", "1",
]


def test_sweep_command_table(capsys):
    assert main(SWEEP_BASE) == 0
    out = capsys.readouterr().out
    assert "fast_gb" in out and "CFI" in out
    assert "fast-tier sweep" in out


def test_sweep_command_json(capsys):
    assert main([*SWEEP_BASE, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert list(payload) == ["policy", "mix", "epochs", "seeds", "cells"]
    assert [c["params"]["fast_gb"] for c in payload["cells"]] == [4.0, 8.0]
    for cell in payload["cells"]:
        assert list(cell) == ["params", "metrics"]
        assert set(cell["metrics"]) == {"mean_ops", "cfi"}


def test_sweep_failing_cell_exits_one(monkeypatch, capsys):
    def broken_cell(fast_gb, **_kwargs):
        raise RuntimeError(f"no machine with {fast_gb} GiB")

    monkeypatch.setattr("repro.cli.sweep_cell", broken_cell)
    assert main([*SWEEP_BASE, "--json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sweep cell {'fast_gb': 4.0} seed=1: RuntimeError: no machine with 4.0 GiB" in captured.err


@pytest.mark.parametrize("argv", [
    ["sweep", "--workers", "2"],
    ["sweep", "--cache-dir", "c"],
    ["sweep", "--no-cache"],
    ["sweep", "--resume"],
    ["sweep", "--timeout", "5"],
    ["sweep", "--derive-seeds"],
    ["fuzz", "--workers", "2"],
], ids=["sweep-workers", "sweep-cache-dir", "sweep-no-cache", "sweep-resume",
        "sweep-timeout", "sweep-derive-seeds", "fuzz-workers"])
def test_retired_sweep_and_fuzz_flags_are_gone(argv, capsys):
    # sweeps and fuzz campaigns run in-process; the worker pool and the
    # result cache these flags drove are gone
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


# -- scenario subcommand ---------------------------------------------------------

def _tiny_spec_dict():
    return {
        "name": "tiny",
        "n_epochs": 6,
        "seed": 3,
        "policy": "vulcan",
        "workloads": [
            # populate_tier 1 forces promotion traffic even though the
            # footprints fit in fast, so the armed faults get rolled.
            {"key": "a", "kind": "memcached", "service": "LC", "rss_pages": 80,
             "n_threads": 2, "accesses_per_thread": 500, "populate_tier": 1},
            {"key": "b", "kind": "liblinear", "service": "BE", "rss_pages": 90,
             "n_threads": 2, "accesses_per_thread": 500, "populate_tier": 1},
        ],
        "events": [
            {"epoch": 1, "action": "faults_set",
             "params": {"aborted_sync": 0.5, "lost_async": 0.5}},
            {"epoch": 3, "action": "depart", "target": "b"},
        ],
    }


@pytest.fixture
def tiny_spec_file(tmp_path):
    p = tmp_path / "tiny.json"
    p.write_text(json.dumps(_tiny_spec_dict()))
    return str(p)


def test_scenario_list(capsys):
    assert main(["scenario", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("churn", "flash_crowd", "degraded_tier", "noisy_neighbor_restart", "fault_storm"):
        assert name in out


def test_scenario_run_spec_file_table(tiny_spec_file, capsys):
    assert main(["scenario", "run", "--spec", tiny_spec_file]) == 0
    out = capsys.readouterr().out
    assert "scenario=tiny" in out
    assert "1 departures" in out
    assert "fairness under churn" in out


def test_scenario_run_json_and_check(tiny_spec_file, capsys):
    assert main(["scenario", "run", "--spec", tiny_spec_file, "--json", "--check"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["spec_name"] == "tiny"
    assert payload["check"]["passed"] is True
    assert len(payload["departures"]) == 1
    assert payload["fairness_under_churn"]["windows"]
    assert "all scenario checks passed" in captured.err


def test_scenario_run_trace_export(tiny_spec_file, tmp_path, capsys):
    trace = tmp_path / "t.trace.json"
    assert main(["scenario", "run", "--spec", tiny_spec_file, "--trace", str(trace)]) == 0
    capsys.readouterr()
    events = json.loads(trace.read_text())["traceEvents"]
    assert any(e.get("cat") == "workload_depart" for e in events)


def test_scenario_run_rejects_name_and_spec_together(tiny_spec_file):
    with pytest.raises(SystemExit):
        main(["scenario", "run", "churn", "--spec", tiny_spec_file])
    with pytest.raises(SystemExit):
        main(["scenario", "run"])


def test_scenario_run_rejects_invalid_spec(tmp_path):
    bad = _tiny_spec_dict()
    bad["events"][1]["target"] = "nope"
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit, match="invalid scenario"):
        main(["scenario", "run", "--spec", str(p)])


def test_scenario_run_unknown_name_rejected():
    with pytest.raises(SystemExit):
        main(["scenario", "run", "nonesuch"])


# -- fleet ------------------------------------------------------------------------


def _tiny_fleet_dict():
    return {
        "name": "tinyfleet",
        "n_rounds": 2,
        "epochs_per_round": 2,
        "seed": 5,
        "policy": "vulcan",
        "placer": "credit-balance",
        "nodes": [
            {"node_id": "n0", "fast_gb": 4.0},
            {"node_id": "n1", "fast_gb": 4.0},
            {"node_id": "n2", "fast_gb": 4.0},
        ],
        "workloads": [
            {"key": "a", "kind": "memcached", "service": "LC", "rss_pages": 120,
             "n_threads": 1, "accesses_per_thread": 400},
            {"key": "b", "kind": "liblinear", "service": "BE", "rss_pages": 100,
             "n_threads": 1, "accesses_per_thread": 400},
            {"key": "c", "kind": "microbench", "service": "BE", "rss_pages": 80,
             "n_threads": 1, "accesses_per_thread": 400},
        ],
        "events": [
            {"round": 1, "action": "node_drain", "node": "n0"},
        ],
    }


@pytest.fixture
def tiny_fleet_file(tmp_path):
    p = tmp_path / "tinyfleet.json"
    p.write_text(json.dumps(_tiny_fleet_dict()))
    return str(p)


def test_fleet_list(capsys):
    assert main(["fleet", "list"]) == 0
    out = capsys.readouterr().out
    for name in ("balanced_trio", "drain_rebalance", "flash_crowd_fleet"):
        assert name in out


def test_fleet_run_spec_file_table(tiny_fleet_file, capsys):
    assert main(["fleet", "run", "--spec", tiny_fleet_file]) == 0
    out = capsys.readouterr().out
    assert "fleet=tinyfleet" in out
    assert "placer=credit-balance" in out
    assert "fleet CFI" in out


def test_fleet_run_json_and_check(tiny_fleet_file, capsys):
    assert main(["fleet", "run", "--spec", tiny_fleet_file, "--json", "--check"]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["summary"]["fleet"] == "tinyfleet"
    assert payload["summary"]["evacuations"] == 1
    assert "workers_used" not in payload
    assert len(payload["rounds"]) == 2
    assert "all fleet checks passed" in captured.err


def test_fleet_run_trace_export(tiny_fleet_file, tmp_path, capsys):
    trace = tmp_path / "f.trace.json"
    assert main(["fleet", "run", "--spec", tiny_fleet_file, "--trace", str(trace)]) == 0
    capsys.readouterr()
    events = json.loads(trace.read_text())["traceEvents"]
    cats = {e.get("cat", "") for e in events}
    assert any(c.startswith("fleet_") for c in cats)


def test_fleet_run_rejects_name_and_spec_together(tiny_fleet_file):
    with pytest.raises(SystemExit):
        main(["fleet", "run", "balanced_trio", "--spec", tiny_fleet_file])
    with pytest.raises(SystemExit):
        main(["fleet", "run"])


def test_fleet_run_rejects_invalid_spec(tmp_path):
    bad = _tiny_fleet_dict()
    bad["events"].append({"round": 1, "action": "node_drain", "node": "n1"})
    bad["events"].append({"round": 1, "action": "node_drain", "node": "n2"})
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit, match="invalid fleet spec"):
        main(["fleet", "run", "--spec", str(p)])


def test_fleet_run_unknown_name_rejected():
    with pytest.raises(SystemExit):
        main(["fleet", "run", "nonesuch"])


def test_fuzz_fleet_flag_wired():
    args = build_parser().parse_args(["fuzz", "--fleet", "--runs", "3"])
    assert args.fleet is True and args.runs == 3


@pytest.mark.parametrize("command", ["serve", "submit", "jobs", "bench"])
def test_removed_commands_are_argparse_errors(command, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([command])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("flag", [
    ["--hugeheap"], ["--fleet"], ["--scenario", "churn"], ["--profile"], ["--service"],
], ids=["hugeheap", "fleet", "scenario", "profile", "service"])
def test_bench_simulator_modes_are_gone(flag, capsys):
    # the old `repro bench` modes are timed by bench/run.py; with the
    # command itself gone, each invocation fails at the subcommand
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bench", *flag])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
