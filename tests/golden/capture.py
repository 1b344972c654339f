"""Regenerate the frozen golden metrics snapshots.

Run from the repo root:

    PYTHONPATH=src python tests/golden/capture.py

The snapshots pin ``ExperimentResult.to_dict()`` bit-for-bit (JSON's
shortest-round-trip float repr is exact), so any refactor of the
frame/heat hot path can be checked against the pre-refactor behaviour.

The ``trace_*.json`` snapshots pin what a *traced* run emits: the event
count plus the sha256 digest of the full ``tracer.events()`` stream, so
a refactor that reorders, drops or re-times a single event is caught
across commits.

The ``fleet_*.json`` snapshots pin each canned fleet (and the drain
fleet under the oracle placer): the spec hash plus the sha256 of
``FleetResult.canonical_json()``, which holds every round record,
oracle score and move.
"""

import hashlib
import json
import pathlib
import sys

from repro.harness.recipes import standard_run

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent
MATRIX = [
    ("vulcan", "paper"), ("vulcan", "dilemma"),
    ("memtis", "paper"), ("memtis", "dilemma"),
    ("tpp", "paper"), ("tpp", "dilemma"),
    ("nomad", "paper"), ("nomad", "dilemma"),
    ("uniform", "paper"),
    ("none", "paper"),
]
EPOCHS = 8
ACCESSES_PER_THREAD = 3000
SEED = 1


def main() -> int:
    for policy, mix in MATRIX:
        res = standard_run(policy, mix, EPOCHS, ACCESSES_PER_THREAD, SEED)
        path = GOLDEN_DIR / f"e2e_{policy}_{mix}.json"
        payload = {
            "config": {
                "policy": policy, "mix": mix, "epochs": EPOCHS,
                "accesses_per_thread": ACCESSES_PER_THREAD, "seed": SEED,
            },
            "result": res.to_dict(),
        }
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")
    capture_scenario()
    capture_traces()
    capture_fleets()
    return 0


def capture_scenario() -> None:
    """Freeze the canned churn scenario: the full ScenarioResult —
    departures, restarts, fault records, leak checks, and the base
    metrics — pinned bit-for-bit under dynamic events."""
    from repro.scenario import get_scenario, run_scenario

    spec = get_scenario("churn")
    sres = run_scenario(spec)
    path = GOLDEN_DIR / "scenario_churn.json"
    payload = {
        "config": {"scenario": "churn", "spec_hash": spec.content_hash()},
        "scenario_result": sres.to_dict(),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}")


#: traced runs pinned by ``trace_<name>.json``: name -> zero-arg runner
TRACE_ACCESSES_PER_THREAD = 800


def _traced_vulcan_paper():
    return standard_run("vulcan", "paper", 4, TRACE_ACCESSES_PER_THREAD, 3)


def _traced_churn():
    from repro.scenario import run_scenario

    return run_scenario("churn")


TRACE_CASES = {
    "vulcan_paper": _traced_vulcan_paper,
    "churn": _traced_churn,
}


def _canonical(obj) -> bytes:
    """Deterministic JSON bytes (numpy scalars unwrapped, floats exact)."""
    return json.dumps(
        obj, sort_keys=True, default=lambda o: o.item() if hasattr(o, "item") else repr(o)
    ).encode()


def trace_digest(name: str) -> dict:
    """Run one traced case; digest its event stream."""
    from repro.obs.trace import get_tracer

    tracer = get_tracer()
    try:
        tracer.enable()
        TRACE_CASES[name]()
        events = tracer.events()
    finally:
        tracer.disable()
        tracer.buffer.clear()
    stream = [[e.kind.value, e.name, e.ts, e.dur, e.pid, e.args] for e in events]
    return {
        "n_events": len(events),
        "events_sha256": hashlib.sha256(_canonical(stream)).hexdigest(),
    }


def capture_traces() -> None:
    for name in TRACE_CASES:
        path = GOLDEN_DIR / f"trace_{name}.json"
        payload = {"case": name, "trace": trace_digest(name)}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")


#: fleets pinned by ``fleet_<case>.json``: case -> (canned fleet, spec overrides)
FLEET_CASES = {
    "balanced_trio": ("balanced_trio", {}),
    "drain_rebalance": ("drain_rebalance", {}),
    "flash_crowd_fleet": ("flash_crowd_fleet", {}),
    "drain_rebalance_oracle": ("drain_rebalance", {"placer": "oracle", "seed": 3}),
}


def fleet_digest(name: str) -> dict:
    """Run one fleet case; digest its canonical result."""
    from repro.fleet import get_fleet_scenario, run_fleet

    fleet, overrides = FLEET_CASES[name]
    spec = get_fleet_scenario(fleet).with_overrides(**overrides)
    res = run_fleet(spec)
    return {
        "spec_hash": spec.content_hash(),
        "result_sha256": hashlib.sha256(res.canonical_json().encode()).hexdigest(),
    }


def capture_fleets() -> None:
    for name in FLEET_CASES:
        path = GOLDEN_DIR / f"fleet_{name}.json"
        payload = {"case": name, "fleet": fleet_digest(name)}
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}")


if __name__ == "__main__":
    sys.exit(main())
