"""Self-tests for the benchmark itself: ``python -m pytest bench -q``.

Workloads run here at tiny sizes, in-process; the real sizes live in
``workloads.py`` and run only through ``run.py``.
"""

from __future__ import annotations

import functools
import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import rep  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Target, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "colocation": {"epochs": 5, "warmup": 2, "accesses": 200},
    "churn": {"epochs": 26, "warmup": 20},
    "hugeheap": {"epochs": 4, "warmup": 2, "accesses": 200, "page_unit_bytes": 10_000_000},
    "fleet": {"rounds": 5},
}


@functools.cache
def tiny(workload: str, seed: int, mode: str) -> dict:
    return rep.measure(workload, seed, mode, **TINY[workload])


@pytest.fixture
def no_pins(monkeypatch):
    """Tiny sizes never match the digests pinned at full size."""
    monkeypatch.setattr(run, "PINS", {})


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_and_passes_its_checks(workload):
    out = tiny(workload, 1, "plain")
    assert out["epochs"] > 0 and out["steady_s"] > 0 and out["setup_s"] > 0
    assert len(out["epoch_ms"]) > 0
    assert 0.0 < out["sim"]["cfi"] <= 1.0
    # A setup-only run stops at the end of the same setup window.
    assert tiny(workload, 1, "setup")["setup_s"] > 0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_digests_match(workload):
    plain, traced = tiny(workload, 1, "plain"), tiny(workload, 1, "traced")
    assert plain["digest"] == traced["digest"]
    assert plain["sim"] == traced["sim"]
    assert traced["layers"]["harness.coverage"] > 0.5


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_decides_the_digest(workload):
    again = rep.measure(workload, 1, "plain", **TINY[workload])
    assert again["digest"] == tiny(workload, 1, "plain")["digest"]
    assert tiny(workload, 2, "plain")["digest"] != again["digest"]


def _patched_attributes() -> dict:
    return {
        (owner, attr): vars(owner)[attr]
        for target in spans.TARGETS
        for owner, attr in spans._owners(target)
    }


def test_every_target_resolves():
    tracer = Tracer()
    with tracer:
        assert tracer.missing == []


def test_patches_are_restored_after_a_run_and_after_a_raise(monkeypatch):
    before = _patched_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="boom"):
        with tracer:
            assert all(vars(o)[a] is not f for (o, a), f in before.items())
            raise RuntimeError("boom")
    assert _patched_attributes() == before

    rep.measure("colocation", 1, "traced", **TINY["colocation"])
    assert _patched_attributes() == before

    from repro.harness.experiment import ColocationExperiment

    def fail(*args, **kwargs):
        raise RuntimeError("mid-run")

    monkeypatch.setattr(ColocationExperiment, "_record_epoch", fail)
    with pytest.raises(RuntimeError, match="mid-run"):
        rep.measure("colocation", 1, "traced", **TINY["colocation"])
    assert _patched_attributes() == before


@pytest.fixture
def fake_layers(monkeypatch):
    """A synthetic module whose calls advance a fake nanosecond clock."""
    now = [0]

    class Layer:
        def outer(self):
            now[0] += 5
            self.inner()
            now[0] += 3

        def inner(self):
            now[0] += 10
            self.leaf()
            self.leaf()

        def leaf(self):
            now[0] += 2

        def recurse(self, depth):
            now[0] += 1
            if depth:
                self.recurse(depth - 1)

    module = types.ModuleType("fake_layers")
    module.Layer = Layer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    targets = (
        Target("outer", "fake_layers:Layer.outer"),
        Target("inner", "fake_layers:Layer.inner"),
        Target("leaf", "fake_layers:Layer.leaf"),
        Target("recurse", "fake_layers:Layer.recurse"),
    )
    return Layer, Tracer(targets, clock=lambda: now[0])


def test_self_time_subtracts_child_spans(fake_layers):
    Layer, tracer = fake_layers
    with tracer:
        tracer.window = "measured"
        Layer().outer()
        Layer().recurse(3)
    assert tracer.stats[("outer", "measured")] == [8, 1]
    assert tracer.stats[("inner", "measured")] == [10, 1]
    assert tracer.stats[("leaf", "measured")] == [4, 2]
    # A span re-entering itself is timed once, at the outermost call.
    assert tracer.stats[("recurse", "measured")] == [4, 1]
    assert tracer.top_ns["measured"] == 26

    layers = tracer.layer_metrics(epochs=2, measured_ns=30, setup_ns=0)
    assert layers["outer.self_ms"] == 8 / 1e6 / 2
    assert layers["leaf.calls"] == 1.0
    assert layers["harness.unattributed.self_ms"] == 4 / 1e6 / 2
    assert layers["harness.coverage"] == 26 / 30


def test_spans_land_in_the_window_current_when_they_end(fake_layers):
    Layer, tracer = fake_layers
    with tracer:
        Layer().inner()
        tracer.window = "measured"
        Layer().leaf()
    assert tracer.stats[("inner", "setup")] == [10, 1]
    assert tracer.stats[("leaf", "setup")] == [4, 2]
    assert tracer.stats[("leaf", "measured")] == [2, 1]


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(100)))[0] == 90.0
    assert run.tail(list(range(1000)))[0] == 99.0
    assert run.tail(list(range(19))) == (50.0, 9.0)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    units = [m["unit"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", u) for u in units)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


@pytest.fixture
def fake_clock(monkeypatch):
    """``run.py`` sees each repetition take 0.4 s."""
    ticks = iter(i * 0.4 for i in range(1000))
    monkeypatch.setattr(run, "time", types.SimpleNamespace(monotonic=lambda: next(ticks)))


@pytest.mark.parametrize("trace", [0, 1])
def test_output_has_every_declared_metric(monkeypatch, capsys, fake_clock, no_pins, tmp_path, trace):
    monkeypatch.setattr(run, "_rep", lambda w, s, mode, timeout: tiny(w, s, mode))
    out = tmp_path / "out.json"
    monkeypatch.setattr(sys, "argv", ["run.py", "--workload", "fleet", "--seconds", "1", "--trace", str(trace),
                                      "--out", str(out)])
    assert run.main() == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 2
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in last["metrics"].items()}
    # What the fleet leaves undefined reads 0 on the result line and is listed in the file.
    undefined = json.loads(out.read_text())["results"][f"fleet/trace{trace}"]["undefined"]
    assert undefined == ([] if trace == 0 else ["sim.migration_cycles", "sim.stall_cycles"])


def test_a_differing_digest_fails_the_run(no_pins):
    runs = [tiny("fleet", 1, "plain"), tiny("fleet", 1, "plain"), tiny("fleet", 2, "plain"), None]
    result = run.aggregate("fleet", 1, 0, runs)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 4, 2)


def test_a_digest_other_than_the_pinned_one_fails_every_full_repetition(monkeypatch):
    monkeypatch.setattr(run, "PINS", {"fleet": {"1": "0" * 64}})
    runs = [tiny("fleet", 1, "plain"), tiny("fleet", 1, "setup"), tiny("fleet", 1, "plain")]
    result = run.aggregate("fleet", 1, 0, runs)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 2)


def test_pins_cover_every_workload_on_the_same_seeds():
    seeds = {workload: frozenset(pins) for workload, pins in run.PINS.items()}
    assert set(seeds) == set(WORKLOADS)
    assert len(set(seeds.values())) == 1
    assert {"1", "2"} <= seeds["fleet"]


def test_repetitions_go_round_robin_over_workloads(monkeypatch, fake_clock):
    calls = []
    monkeypatch.setattr(run, "_rep", lambda w, s, mode, timeout: calls.append((w, mode)))
    run.collect(["colocation", "fleet"], 1, 1, 0)
    one_round = [(w, m) for w in ("colocation", "fleet") for m in ("plain",) + ("setup",) * run.SETUP_REPS]
    assert calls == one_round * run.MIN_ROUNDS[0]


def test_without_the_simulator_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fleet", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
