"""The trace writer, its reader, and the summary behind ``python -m repro trace``.

* :func:`write_chrome_trace` — the Chrome ``trace_event`` JSON object
  format (loadable in chrome://tracing and Perfetto); spans become
  complete (``"X"``) events, everything else instants (``"i"``), with
  the event kind in ``cat`` and timestamps in simulated cycles;
* :func:`read_trace` — loads such a file back into
  :class:`~repro.obs.events.TraceEvent` streams;
* :func:`summarize` — the human-readable digest (per-phase migration
  cycles, shootdown-scope histogram, CBFRP credit timeline, queue
  activity) printed by the ``trace`` CLI subcommand.
"""

from __future__ import annotations

import json
from collections import Counter as TallyCounter
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable

from repro.metrics.reporting import render_table
from repro.obs.events import EventKind, TraceEvent

#: Workload pids start at 100 in the harness; 0 encodes "no pid".
_NO_PID = 0


# -- Chrome trace_event --------------------------------------------------------


def to_chrome_trace(
    events: Iterable[TraceEvent],
    *,
    process_names: dict[int, str] | None = None,
) -> dict[str, Any]:
    """Build the Chrome JSON-object-format trace.

    ``ts``/``dur`` stay in simulated cycles (the viewer's microsecond
    label reads as cycles); ``traceEvents`` is sorted so timestamps are
    monotonically non-decreasing, metadata first.
    """
    names = dict(process_names or {})
    trace_events: list[dict[str, Any]] = []
    seen_pids: set[int] = set()
    for ev in sorted(events, key=lambda e: e.ts):
        pid = ev.pid if ev.pid is not None else _NO_PID
        seen_pids.add(pid)
        record: dict[str, Any] = {
            "name": ev.name,
            "cat": ev.kind.value,
            "ph": "X" if ev.kind is EventKind.SPAN else "i",
            "ts": ev.ts,
            "pid": pid,
            "tid": 0,
            "args": ev.args,
        }
        if ev.kind is EventKind.SPAN:
            record["dur"] = ev.dur
        else:
            record["s"] = "p"  # process-scoped instant
            if ev.dur:
                record["args"] = {**ev.args, "dur_cycles": ev.dur}
        trace_events.append(record)
    metadata = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": names.get(pid, "sim" if pid == _NO_PID else f"pid {pid}")},
        }
        for pid in sorted(seen_pids)
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "cycles", "producer": "repro.obs"},
    }


def write_chrome_trace(
    events: Iterable[TraceEvent],
    path: str | Path,
    *,
    process_names: dict[int, str] | None = None,
) -> int:
    """Write the Chrome-format trace; returns the number of trace events."""
    doc = to_chrome_trace(events, process_names=process_names)
    Path(path).write_text(json.dumps(doc))
    return sum(1 for e in doc["traceEvents"] if e["ph"] != "M")


# -- reading back --------------------------------------------------------------


def read_trace(path: str | Path) -> list[TraceEvent]:
    """Load a trace written by :func:`write_chrome_trace` back into
    events; an empty file holds none.

    Raises :class:`ValueError` for anything that is not a Chrome
    trace object.
    """
    text = Path(path).read_text()
    if not text.strip():
        return []
    doc = json.loads(text)
    records = doc.get("traceEvents") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not all(isinstance(r, dict) for r in records):
        raise ValueError("not a Chrome trace object")
    events: list[TraceEvent] = []
    for rec in records:
        if rec.get("ph") == "M":
            continue
        pid = rec.get("pid", _NO_PID)
        args = dict(rec.get("args", {}))
        dur = float(rec.get("dur", args.pop("dur_cycles", 0.0)))
        try:
            kind = EventKind(rec.get("cat", ""))
        except ValueError:
            kind = EventKind.SPAN if rec.get("ph") == "X" else EventKind.INSTANT
        events.append(
            TraceEvent(
                kind=kind,
                name=rec.get("name", ""),
                ts=float(rec.get("ts", 0.0)),
                dur=dur,
                pid=None if pid == _NO_PID else int(pid),
                args=args,
            )
        )
    return events


# -- human-readable summary ----------------------------------------------------


def _workload_label(pid: int | None, names: dict[int, str]) -> str:
    if pid is None:
        return "-"
    return names.get(pid, str(pid))


def _sparkline(values: list[float], width: int = 12) -> str:
    """Downsample a series to ≤ ``width`` arrow-joined points."""
    if not values:
        return "-"
    if len(values) > width:
        step = len(values) / width
        values = [values[int(i * step)] for i in range(width - 1)] + [values[-1]]
    return " → ".join(f"{v:g}" for v in values)


def summarize(events: list[TraceEvent]) -> str:
    """Render the digest the acceptance criteria ask for."""
    names: dict[int, str] = {}
    epochs: set[int] = set()
    phase_cycles: dict[str, float] = defaultdict(float)
    phase_counts: dict[str, int] = defaultdict(int)
    batches: list[TraceEvent] = []
    scope_hist: TallyCounter = TallyCounter()
    scope_wide = 0
    scope_total = 0
    credit_series: dict[int, list[tuple[float, float]]] = defaultdict(list)
    granted: dict[int, float] = defaultdict(float)
    borrowed: dict[int, float] = defaultdict(float)
    reclaimed = 0
    promo_by_class: TallyCounter = TallyCounter()
    promos: dict[int, int] = defaultdict(int)
    demos: dict[int, int] = defaultdict(int)
    fleet_rounds: set[int] = set()
    fleet_moves: TallyCounter = TallyCounter()
    fleet_move_pages: dict[str, int] = defaultdict(int)
    fleet_move_cycles: dict[str, float] = defaultdict(float)
    fleet_node_changes: list[TraceEvent] = []

    for ev in events:
        if ev.kind is EventKind.EPOCH:
            epochs.add(int(ev.args.get("epoch", -1)))
            for pid_s, name in ev.args.get("workloads", {}).items():
                names[int(pid_s)] = str(name)
        elif ev.kind is EventKind.MIGRATION_PHASE:
            phase = str(ev.args.get("phase", ev.name))
            phase_cycles[phase] += ev.dur or float(ev.args.get("cycles", 0.0))
            phase_counts[phase] += 1
        elif ev.kind is EventKind.SPAN and ev.name == "migrate_batch":
            batches.append(ev)
        elif ev.kind is EventKind.TLB_SHOOTDOWN:
            scope_hist[int(ev.args.get("n_targets", 0))] += 1
            scope_total += 1
            if ev.args.get("process_wide"):
                scope_wide += 1
        elif ev.kind is EventKind.CREDIT_BALANCE and ev.pid is not None:
            credit_series[ev.pid].append((ev.ts, float(ev.args.get("credits", 0.0))))
        elif ev.kind is EventKind.CREDIT_GRANT:
            granted[int(ev.args.get("donor", -1))] += float(ev.args.get("units", 0))
            borrowed[int(ev.args.get("borrower", -1))] += float(ev.args.get("units", 0))
        elif ev.kind is EventKind.CREDIT_RECLAIM:
            reclaimed += int(ev.args.get("units", 1))
        elif ev.kind is EventKind.QUEUE_PROMOTION:
            promo_by_class[str(ev.args.get("page_class", "?"))] += 1
            if ev.pid is not None:
                promos[ev.pid] += 1
        elif ev.kind is EventKind.QUEUE_DEMOTION:
            if ev.pid is not None:
                demos[ev.pid] += 1
        elif ev.kind is EventKind.FLEET_ROUND:
            fleet_rounds.add(int(ev.args.get("round", -1)))
        elif ev.kind in (EventKind.FLEET_PLACEMENT, EventKind.FLEET_MIGRATION,
                         EventKind.FLEET_EVACUATION):
            reason = ev.name
            fleet_moves[reason] += 1
            fleet_move_pages[reason] += int(ev.args.get("pages", 0))
            fleet_move_cycles[reason] += float(ev.args.get("cycles", 0.0))
        elif ev.kind is EventKind.FLEET_NODE_CHANGE:
            fleet_node_changes.append(ev)

    sections: list[str] = []
    n_epochs = len(epochs)
    sections.append(
        f"trace: {len(events)} events, {n_epochs} epochs, "
        f"{len(names) or len(credit_series)} workloads"
    )

    if phase_cycles:
        total = sum(phase_cycles.values())
        rows = [
            [phase, phase_counts[phase], cyc, f"{cyc / total:.1%}"]
            for phase, cyc in sorted(phase_cycles.items(), key=lambda kv: -kv[1])
        ]
        sections.append(render_table(
            ["phase", "events", "cycles", "share"], rows,
            title="migration cycles by phase", float_fmt="{:.3g}",
        ))

    if batches:
        top = sorted(batches, key=lambda e: -e.dur)[:10]
        rows = [
            [_workload_label(ev.pid, names), int(ev.args.get("pages", 0)), ev.dur]
            for ev in top
        ]
        sections.append(render_table(
            ["workload", "pages", "cycles"], rows,
            title=f"top migration batches by cost (of {len(batches)})", float_fmt="{:.3g}",
        ))

    if scope_total:
        rows = [
            [targets, count, f"{count / scope_total:.1%}"]
            for targets, count in sorted(scope_hist.items())
        ]
        sections.append(render_table(
            ["target cores", "shootdowns", "share"], rows,
            title=(
                f"TLB shootdown scope histogram "
                f"({scope_wide} process-wide, {scope_total - scope_wide} scoped)"
            ),
        ))

    if credit_series:
        rows = []
        for pid in sorted(credit_series):
            series = [v for _, v in credit_series[pid]]
            rows.append([
                _workload_label(pid, names),
                granted.get(pid, 0.0),
                borrowed.get(pid, 0.0),
                _sparkline(series),
            ])
        title = "CBFRP credit timeline (units donated / borrowed, balance over epochs)"
        if reclaimed:
            title += f" [{reclaimed} units expropriated BE→LC]"
        sections.append(render_table(
            ["workload", "donated", "borrowed", "credit balance"], rows,
            title=title, float_fmt="{:.0f}",
        ))

    if promos or demos or promo_by_class:
        rows = [
            [_workload_label(pid, names), promos.get(pid, 0), demos.get(pid, 0)]
            for pid in sorted(set(promos) | set(demos))
        ]
        sections.append(render_table(
            ["workload", "promotions", "demotions"], rows,
            title="queue activity (pages served / demoted)",
        ))
        if promo_by_class:
            rows = [[cls, n] for cls, n in sorted(promo_by_class.items(), key=lambda kv: -kv[1])]
            sections.append(render_table(
                ["page class", "promotions"], rows, title="promotions by Table-1 class",
            ))

    if fleet_rounds or fleet_moves or fleet_node_changes:
        rows = [
            [reason, fleet_moves[reason], fleet_move_pages[reason], fleet_move_cycles[reason]]
            for reason in sorted(fleet_moves)
        ]
        joins = sum(1 for ev in fleet_node_changes if ev.name == "node_join")
        drains = sum(1 for ev in fleet_node_changes if ev.name == "node_drain")
        crowds = sum(1 for ev in fleet_node_changes if ev.name == "flash_crowd")
        sections.append(render_table(
            ["move", "count", "pages", "cycles"], rows,
            title=(
                f"fleet activity ({len(fleet_rounds)} sync rounds, {drains} drains, "
                f"{joins} joins, {crowds} flash crowds)"
            ),
            float_fmt="{:.3g}",
        ))

    return "\n\n".join(sections)
