"""Tracer API, Chrome trace round-trips, and the summary digest."""

from __future__ import annotations

import json

import pytest

from repro.harness import ColocationExperiment
from repro.obs.events import EventKind, TraceEvent
from repro.obs.export import (
    read_trace,
    summarize,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.config import SimulationConfig
from repro.workloads.mixes import dilemma_pair


def traced_run(policy: str = "vulcan", epochs: int = 5, seed: int = 3):
    sim = SimulationConfig(epoch_seconds=0.5)
    mix = dilemma_pair(sim, seed=seed, accesses_per_thread=1500)
    exp = ColocationExperiment(policy, mix, sim=sim, seed=seed)
    return exp.run(epochs)


# -- tracer API ---------------------------------------------------------------


def test_span_measures_advanced_cycles(tracer):
    with tracer.span("outer", pid=7, pages=3):
        tracer.advance(100)
        tracer.advance(50)
    (ev,) = tracer.events()
    assert ev.kind is EventKind.SPAN
    assert ev.name == "outer" and ev.pid == 7
    assert ev.dur == 150
    assert ev.args == {"pages": 3}


def test_clock_never_goes_backwards(tracer):
    tracer.set_time(1000)
    tracer.set_time(400)  # epoch re-anchor below current time: ignored
    assert tracer.now == 1000
    tracer.advance(-5)  # negative charges are ignored
    assert tracer.now == 1000


def test_disabled_tracer_records_nothing():
    from repro.obs.trace import get_tracer

    t = get_tracer()
    assert not t.enabled
    t.instant("x")
    t.emit(EventKind.EPOCH, "epoch")
    with t.span("y"):
        pass
    assert t.events() == []


# -- export round-trips -------------------------------------------------------


def test_chrome_trace_round_trips_and_ts_monotonic(tracer, tmp_path):
    res = traced_run()
    path = tmp_path / "t.json"
    names = {ts.pid: ts.name for ts in res.workloads.values()}
    n = write_chrome_trace(tracer.events(), path, process_names=names)
    assert n == len(tracer.events()) > 100

    doc = json.loads(path.read_text())  # round-trips through json.loads
    events = doc["traceEvents"]
    assert doc["otherData"]["time_unit"] == "cycles"
    # Monotonically non-decreasing timestamps.
    ts = [e["ts"] for e in events]
    assert all(a <= b for a, b in zip(ts, ts[1:]))
    # Metadata names the workload processes.
    meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
    assert set(names.values()) <= set(meta.values())
    # Spans are complete events with durations.
    spans = [e for e in events if e["ph"] == "X"]
    assert spans and all("dur" in e for e in spans)


def test_chrome_trace_reader_recovers_events(tracer, tmp_path):
    traced_run()
    original = tracer.events()
    path = tmp_path / "t.json"
    write_chrome_trace(original, path)
    recovered = read_trace(path)
    assert len(recovered) == len(original)
    assert {e.kind for e in recovered} == {e.kind for e in original}
    # Cycle totals by phase survive the round trip exactly.
    def phase_totals(events):
        out = {}
        for e in events:
            if e.kind is EventKind.MIGRATION_PHASE:
                out[e.args["phase"]] = out.get(e.args["phase"], 0.0) + e.dur
        return out

    assert phase_totals(recovered) == phase_totals(original)


#: files that are not a Chrome trace object: one event per line (the
#: retired JSONL form), a single such line, garbage, and JSON of the
#: wrong shape
NOT_A_CHROME_TRACE = {
    "jsonl": (
        '{"kind": "epoch", "name": "epoch", "ts": 0.0, "dur": 0.0, "pid": null, "args": {}}\n'
        '{"kind": "span", "name": "migrate_batch", "ts": 5.0, "dur": 2.0, "pid": 100, "args": {}}\n'
    ),
    "jsonl_one_line": '{"kind": "epoch", "name": "epoch", "ts": 0.0, "args": {}}\n',
    "garbage": "not a trace at all\n",
    "json_list": "[1, 2, 3]",
    "events_not_a_list": '{"traceEvents": 7}',
    "event_not_an_object": '{"traceEvents": [1]}',
}


@pytest.mark.parametrize("text", NOT_A_CHROME_TRACE.values(), ids=NOT_A_CHROME_TRACE.keys())
def test_read_trace_rejects_anything_but_a_chrome_trace(tmp_path, text):
    path = tmp_path / "bad.trace"
    path.write_text(text)
    with pytest.raises(ValueError):
        read_trace(path)


def test_read_trace_of_an_empty_file_has_no_events(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("\n")
    assert read_trace(path) == []


def test_instant_pid_none_round_trips_as_none(tmp_path):
    events = [TraceEvent(kind=EventKind.TLB_SHOOTDOWN, name="shootdown", ts=5.0,
                         args={"n_targets": 2, "process_wide": False})]
    path = tmp_path / "one.json"
    write_chrome_trace(events, path)
    (back,) = read_trace(path)
    assert back.pid is None
    assert back.args["n_targets"] == 2


# -- summary ------------------------------------------------------------------


def test_summary_names_the_required_sections(tracer, tmp_path):
    traced_run()
    path = tmp_path / "t.json"
    write_chrome_trace(tracer.events(), path)
    text = summarize(read_trace(path))
    assert "migration cycles by phase" in text
    assert "prep" in text and "shootdown" in text and "copy" in text
    assert "TLB shootdown scope histogram" in text
    assert "CBFRP credit timeline" in text
    assert "queue activity" in text
    # Workload names resolved from epoch events, not raw pids.
    assert "memcached" in text


def test_summary_fleet_activity_section(tracer):
    from repro.fleet import FleetEvent, FleetSpec, NodeDef, run_fleet
    from repro.scenario.spec import WorkloadDef

    spec = FleetSpec(
        name="trace-fleet",
        n_rounds=2,
        epochs_per_round=2,
        nodes=(NodeDef("n0", 4.0), NodeDef("n1", 4.0), NodeDef("n2", 4.0)),
        workloads=(
            WorkloadDef(key="a", kind="microbench", service="BE", rss_pages=100,
                        n_threads=1, accesses_per_thread=400),
            WorkloadDef(key="b", kind="microbench", service="BE", rss_pages=90,
                        n_threads=1, accesses_per_thread=400),
        ),
        events=(FleetEvent(round=1, action="node_drain", node="n0"),),
        seed=9,
    ).validate()
    run_fleet(spec)
    text = summarize(tracer.events())
    assert "fleet activity" in text
    assert "1 drains" in text
    assert "evacuation" in text


def _ev(event_kind: EventKind, name: str, pid: int | None = None, **args) -> TraceEvent:
    return TraceEvent(kind=event_kind, name=name, ts=0.0, pid=pid, args=args)


def test_summary_lists_every_scenario_event_kind():
    """Each scenario event is a row in stream order; a fault toggle (no
    ``vpn``) is a row, a faulted migration only counts toward its kind."""
    K = EventKind
    events = [
        _ev(K.EPOCH, "epoch", epoch=0, workloads={"100": "mc"}),
        _ev(K.FAULT_INJECTED, "faults_set", epoch=1, probs={"lost_async": 0.5}),
        _ev(K.FAULT_INJECTED, "lost_async", 100, kind="lost_async", vpn=7, dest_tier=0),
        _ev(K.FAULT_INJECTED, "lost_async", 100, kind="lost_async", vpn=8, dest_tier=0),
        _ev(K.FAULT_INJECTED, "aborted_sync", 100, kind="aborted_sync", vpn=9, dest_tier=1),
        _ev(K.PHASE_SHIFT, "mc", 100, epoch=2, reseed=5),
        _ev(K.QOS_CHANGE, "mc", 100, epoch=3, **{"from": "LC", "to": "BE"}),
        _ev(K.CAPACITY_CHANGE, "tier_offline", epoch=4, fast_online=10, offlined=5),
        _ev(K.WORKLOAD_DEPART, "mc", 100, epoch=5, reason="depart", freed={"fast": 3}),
        _ev(K.WORKLOAD_RESTART, "mc", 104, epoch=6, generation=1),
        _ev(K.FAULT_INJECTED, "faults_clear", epoch=7),
    ]
    section = summarize(events).split("\n\n")[-1]
    title, _, _, *rows = section.splitlines()
    assert title == "scenario events (3 migration faults: aborted_sync 1, lost_async 2)"
    assert [r.split()[:2] for r in rows] == [
        ["1", "faults_set"], ["2", "phase_shift"], ["3", "qos_change"],
        ["4", "tier_offline"], ["5", "depart"], ["6", "restart"], ["7", "faults_clear"],
    ]
    assert "mc (pid 100)" in rows[4] and "freed=fast:3" in rows[4]
    # the restarted pid was never named by an epoch: the event names it
    assert "mc (pid 104)" in rows[5]
    assert "probs=lost_async:0.5" in rows[0]


def test_summary_of_a_traced_churn_scenario(tracer):
    """Churn's departures, restart and fault toggles reach the summary,
    and the restarted workload's rows read apart from its first life's."""
    from repro.scenario.engine import ScenarioExperiment
    from repro.scenario.library import get_scenario

    ScenarioExperiment(get_scenario("churn")).run()
    events = tracer.events()
    text = summarize(events)
    faults = sum(1 for e in events if e.kind is EventKind.FAULT_INJECTED and "vpn" in e.args)
    assert faults and f"scenario events ({faults} migration faults: " in text
    for e in events:
        if e.kind in (EventKind.WORKLOAD_DEPART, EventKind.WORKLOAD_RESTART):
            assert f"{e.name} (pid {e.pid})" in text
    restarted = [e for e in events if e.kind is EventKind.WORKLOAD_RESTART]
    assert restarted
    credit = text[text.index("CBFRP credit timeline"):text.index("queue activity")]
    for e in restarted:
        first = next(d for d in events if d.kind is EventKind.WORKLOAD_DEPART and d.name == e.name)
        assert f"{e.name} (pid {first.pid})" in credit and f"{e.name} (pid {e.pid})" in credit
    assert "faults_set" in text and "faults_clear" in text


def test_summary_without_fleet_events_has_no_fleet_section(tracer):
    traced_run(epochs=2)
    assert "fleet activity" not in summarize(tracer.events())


def test_chrome_trace_empty_stream():
    doc = to_chrome_trace([])
    assert doc["traceEvents"] == []
