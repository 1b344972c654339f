"""The fuzz campaign driver behind ``repro fuzz`` (DESIGN.md §fuzz).

A campaign is a deterministic function of ``(kind, seed, runs,
max_epochs)``: the full case list is generated up front from per-case
seed pairs, each case runs with every invariant check armed, and the
report is assembled in case order — so the same seed always yields the
same run list and the same report, serial or parallel
(``harness.parallel`` fans cases out exactly like sweep cells).

Two kinds of case share this one driver: single-node scenario
timelines (:data:`SCENARIO`) and multi-node fleets (:data:`FLEET`).  A
:class:`CaseKind` holds everything that differs between them; running
a case, its finding record, the replay cross-check, promotion and
crasher replay are written once.

On top of the per-case checks the campaign itself cross-checks
**replay determinism**: every ``replay_every``-th case is re-run
in-process and its full record compared field-for-field (this is also
what proves serial ≡ workers>1: worker records must match the
in-parent replay bit-for-bit).

Failing scenario cases are shrunk (:mod:`repro.fuzz.shrink`); failures
of either kind are optionally promoted (:mod:`repro.fuzz.promote`) to
content-hashed regression files.

The report contains no wall-clock values — timing goes to stderr in the
CLI layer only — so reports themselves are replay-comparable.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from repro.fleet.events import FleetSpecError
from repro.fuzz.oracle import InvariantOracle, InvariantViolation
from repro.fuzz.promote import load_crasher, promote_crasher
from repro.fuzz.shrink import shrink_case
from repro.fuzz.strategies import FleetFuzzCase, FuzzCase, generate_case, generate_fleet_case
from repro.harness.parallel import CellTask, execute_tasks
from repro.obs.metrics import get_registry
from repro.scenario.spec import ScenarioSpecError

#: epoch-horizon default for generated timelines
DEFAULT_MAX_EPOCHS = 24

#: how many failures per campaign get the (expensive) shrink treatment
MAX_SHRINKS = 5


@dataclass(frozen=True)
class CaseKind:
    """Everything a campaign does differently for one kind of case."""

    #: the key in :data:`KINDS` that worker tasks name their kind by
    name: str
    case_type: type
    #: ``(master_seed, index, max_epochs) -> case``
    generate: Callable[[int, int, int], Any]
    #: the record's leading fields
    header: Callable[[Any], dict]
    #: runs one case with every check armed; raises on a finding
    execute: Callable[[Any], Any]
    result_hash: Callable[[Any], str]
    #: whether failing cases are shrunk and report their original size
    shrinks: bool
    crasher_format: str
    crasher_prefix: str
    #: raised when a crasher's spec no longer validates
    spec_error: type[Exception]
    runs_counter: str
    #: the report's leading keys, from ``(seed, runs, max_epochs)``
    report_head: Callable[[int, int, int], dict]


def _execute_scenario(case: FuzzCase):
    from repro.scenario.engine import ScenarioExperiment
    from repro.sim.config import MachineConfig

    exp = ScenarioExperiment(
        case.spec,
        oracle=InvariantOracle(),
        machine_config=MachineConfig().with_fast_gb(case.fast_gb),
    )
    exp.run()
    assert exp.scenario_result is not None
    return exp.scenario_result


def _hash_scenario(sres) -> str:
    canon = json.dumps(sres.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


SCENARIO = CaseKind(
    name="scenario",
    case_type=FuzzCase,
    generate=lambda seed, index, max_epochs: generate_case(seed, index, max_epochs=max_epochs),
    header=lambda c: {
        "index": c.index,
        "policy": c.spec.policy,
        "fast_gb": c.fast_gb,
        "n_epochs": c.spec.n_epochs,
        "n_workloads": len(c.spec.workloads),
        "n_events": len(c.spec.events),
        "spec_hash": c.spec.content_hash(),
    },
    execute=_execute_scenario,
    result_hash=_hash_scenario,
    shrinks=True,
    crasher_format="fuzz-crasher-v1",
    crasher_prefix="crasher_",
    spec_error=ScenarioSpecError,
    runs_counter="fuzz_runs_total",
    report_head=lambda seed, runs, max_epochs: {"seed": seed, "runs": runs, "max_epochs": max_epochs},
)


def _execute_fleet(case: FleetFuzzCase):
    """``check=True`` arms both oracle layers: a fresh
    :class:`InvariantOracle` in every node round, and
    :func:`~repro.fuzz.oracle.check_fleet_round` (cross-node frame
    conservation) after every sync round."""
    from repro.fleet import run_fleet

    return run_fleet(case.spec, check=True)


#: fleet timelines are round-granular, so the epoch-level shrinker does
#: not apply: failures are promoted whole
FLEET = CaseKind(
    name="fleet",
    case_type=FleetFuzzCase,
    generate=lambda seed, index, _max_epochs: generate_fleet_case(seed, index),
    header=lambda c: {
        "index": c.index,
        "policy": c.spec.policy,
        "placer": c.spec.placer,
        "n_rounds": c.spec.n_rounds,
        "n_nodes": len(c.spec.nodes),
        "n_workloads": len(c.spec.workloads),
        "n_events": len(c.spec.events),
        "spec_hash": c.spec.content_hash(),
    },
    execute=_execute_fleet,
    result_hash=lambda fres: hashlib.sha256(fres.canonical_json().encode()).hexdigest(),
    shrinks=False,
    crasher_format="fleet-crasher-v1",
    crasher_prefix="fleet_crasher_",
    spec_error=FleetSpecError,
    runs_counter="fuzz_fleet_runs_total",
    report_head=lambda seed, runs, _max_epochs: {"mode": "fleet", "seed": seed, "runs": runs},
)

KINDS = {k.name: k for k in (SCENARIO, FLEET)}


def _crash(error: str, message: str) -> dict:
    """The finding for a failure the oracle did not raise."""
    return {"check": f"crash:{error}", "epoch": None, "message": message, "context": {}}


def _run(kind: CaseKind, case) -> tuple[dict | None, Any]:
    """``(finding, result)`` of one case; exactly one of the two is None."""
    try:
        return None, kind.execute(case)
    except InvariantViolation as exc:
        return exc.to_dict(), None
    except Exception as exc:  # noqa: BLE001 — every crash is a finding
        return _crash(type(exc).__name__, str(exc)), None


def _record(kind: CaseKind, case, finding: dict | None, result_hash: str | None) -> dict:
    return {
        **kind.header(case),
        "status": "ok" if finding is None else "violation",
        "finding": finding,
        "result_hash": result_hash,
    }


def case_finding(kind: CaseKind, case) -> dict | None:
    """None when the case passes, else a finding dict with a stable
    ``check`` id (``crash:<Type>`` for non-oracle exceptions)."""
    return _run(kind, case)[0]


def run_case_record(kind: CaseKind, case) -> dict:
    """One case → its plain-data campaign record (order-free)."""
    finding, result = _run(kind, case)
    return _record(kind, case, finding, None if finding is not None else kind.result_hash(result))


def run_case(*, case: str, kind: str, seed: int = 0) -> dict:
    """Worker-process entry: ``case`` is a case of kind ``kind`` as JSON.

    Module-level with a ``seed`` kwarg so it satisfies the
    ``harness.parallel`` factory contract (the seed is carried inside
    the case; the task-level one is ignored).
    """
    k = KINDS[kind]
    return run_case_record(k, k.case_type.from_dict(json.loads(case)))


def _run_all(kind: CaseKind, cases: list, seed: int, workers: int) -> list[dict]:
    if workers <= 1:
        return [run_case_record(kind, c) for c in cases]
    tasks = [
        CellTask(
            index=c.index, cell_index=c.index,
            params=(("case", json.dumps(c.to_dict(), sort_keys=True)), ("kind", kind.name)),
            seed=seed, cell_seed=seed,
        )
        for c in cases
    ]
    outcomes = execute_tasks(tasks, run_case, workers=workers)
    records = []
    for c in cases:
        out = outcomes[c.index]
        if out.ok:
            records.append(out.result["data"])
        else:  # the worker process itself died — still a finding
            records.append(_record(kind, c, _crash(out.failure.error, out.failure.message), None))
    return records


def replay_crasher(kind: CaseKind, path) -> dict:
    """Re-run one promoted crasher: ``status`` is ``fixed`` or ``failing``.

    A crasher whose spec is now rejected at validation is fixed too:
    the crash is unreachable through any entry point.
    """
    path = Path(path)
    try:
        case, violation = load_crasher(kind, path)
    except kind.spec_error as exc:
        return {
            "file": path.name,
            "original_check": json.loads(path.read_text())["violation"]["check"],
            "status": "fixed",
            "finding": None,
            "note": f"spec now rejected at validation: {exc}",
        }
    finding = case_finding(kind, case)
    return {
        "file": path.name,
        "original_check": violation["check"],
        "status": "fixed" if finding is None else "failing",
        "finding": finding,
    }


def campaign(
    *,
    kind: CaseKind = SCENARIO,
    seed: int,
    runs: int,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    workers: int = 1,
    shrink: bool = True,
    promote_dir=None,
    replay_every: int = 10,
    log=None,
) -> dict:
    """One full fuzz campaign over cases of ``kind``; returns the
    deterministic report dict.  ``max_epochs`` and ``shrink`` apply to
    scenario cases only."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    registry = get_registry()
    say = log if log is not None else (lambda _msg: None)

    cases = [kind.generate(seed, i, max_epochs) for i in range(runs)]

    # -- execute ----------------------------------------------------------
    records = _run_all(kind, cases, seed, workers)
    for rec in records:
        registry.counter(kind.runs_counter, status=rec["status"]).inc()
        if rec["finding"] is not None:
            registry.counter("fuzz_violations_total", check=rec["finding"]["check"]).inc()

    # -- replay determinism ----------------------------------------------
    replay = {"checked": [], "mismatches": []}
    for i in range(0, runs, max(replay_every, 1)):
        again = run_case_record(kind, cases[i])
        replay["checked"].append(i)
        if again != records[i]:
            replay["mismatches"].append({"index": i, "first": records[i], "replay": again})
            registry.counter("fuzz_violations_total", check="determinism").inc()
    if replay["mismatches"]:
        say(f"replay determinism FAILED on {len(replay['mismatches'])} case(s)")

    # -- shrink + promote -------------------------------------------------
    failures = []
    shrunk = 0
    for rec in records:
        if rec["status"] != "violation":
            continue
        entry = {"index": rec["index"], "finding": rec["finding"]}
        case = cases[rec["index"]]
        if kind.shrinks:
            entry["original"] = {"n_epochs": rec["n_epochs"], "n_events": rec["n_events"]}
            if shrink and shrunk < MAX_SHRINKS:
                shrunk += 1
                say(f"shrinking case {rec['index']} ({rec['finding']['check']}) ...")
                res = shrink_case(case, rec["finding"]["check"], functools.partial(case_finding, kind))
                registry.counter("fuzz_shrink_steps_total").inc(res.steps)
                case = res.case
                entry["shrink"] = {
                    "steps": res.steps,
                    "attempts": res.attempts,
                    "n_epochs": case.spec.n_epochs,
                    "n_events": len(case.spec.events),
                }
        entry["minimized"] = case.to_dict()
        if promote_dir is not None:
            path = promote_crasher(kind, case, rec["finding"], promote_dir)
            entry["promoted"] = str(path)
            say(f"promoted {kind.name} case {rec['index']} -> {path}")
        failures.append(entry)

    n_ok = sum(r["status"] == "ok" for r in records)
    return {
        **kind.report_head(seed, runs, max_epochs),
        "workers": workers,
        "counts": {
            "ok": n_ok,
            "violations": runs - n_ok,
            "replay_checked": len(replay["checked"]),
            "replay_mismatches": len(replay["mismatches"]),
        },
        "cases": records,
        "failures": failures,
        "replay": replay,
        "clean": n_ok == runs and not replay["mismatches"],
    }
