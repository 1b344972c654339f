"""Job execution: a normalized :class:`JobSpec` → a plain-data result.

Every runner calls the *same* recipe the CLI command calls
(``harness.recipes`` / ``scenario.run_scenario``), which is what makes
the determinism contract hold: a job's metrics are bit-identical to
the equivalent ``repro run`` / ``repro sweep`` / ``repro scenario``
invocation.  Results are returned strict-JSON-safe (non-finite floats
marker-encoded) so they can land in the shared result cache and cross
the HTTP boundary unchanged.

Runners execute inside a forked worker child (see ``scheduler``), so
they must not touch the queue, the journal, or any server state.
"""

from __future__ import annotations

import functools

from repro.harness.jsonsafe import encode_nonfinite
from repro.service.jobs import JobSpec


class JobExecutionError(RuntimeError):
    """A job ran but could not produce a complete result."""


def run_job(spec: JobSpec, *, cell_cache_dir: str | None = None) -> dict:
    """Execute one normalized spec and return its result payload."""
    spec = spec.normalized()
    runner = _RUNNERS[spec.kind]
    return encode_nonfinite(runner(spec.payload, cell_cache_dir))


def _run_run(payload: dict, cell_cache_dir: str | None) -> dict:
    from repro.harness.recipes import run_summary_json, standard_run

    res = standard_run(
        payload["policy"], payload["mix"], payload["epochs"],
        payload["accesses"], payload["seed"],
    )
    out = run_summary_json(res, mix=payload["mix"], seed=payload["seed"])
    # the full serialized result rides along so clients can reconstruct
    # an ExperimentResult (and the dedup test can compare bit-for-bit)
    out["result"] = res.to_dict()
    out["kind"] = "run"
    return out


def _run_sweep(payload: dict, cell_cache_dir: str | None) -> dict:
    from repro.harness.recipes import sweep_cell, sweep_cfi, sweep_mean_ops
    from repro.harness.sweeps import Sweep

    factory = functools.partial(
        sweep_cell,
        policy=payload["policy"], mix=payload["mix"],
        epochs=payload["epochs"], accesses=payload["accesses"],
    )
    sweep = Sweep(metrics={"mean_ops": sweep_mean_ops, "cfi": sweep_cfi})
    cells = sweep.run(
        factory,
        grid={"fast_gb": payload["fast_gb"]},
        seeds=payload["seeds"],
        workers=payload["workers"],
        cache_dir=cell_cache_dir,
        derived_seeds=payload["derived_seeds"],
        cache_extra={
            "policy": payload["policy"], "mix": payload["mix"],
            "epochs": payload["epochs"], "accesses": payload["accesses"],
        },
    )
    if sweep.errors:
        first = sweep.errors[0]
        raise JobExecutionError(
            f"{len(sweep.errors)} sweep cell(s) failed; first: "
            f"{dict(first.params)} seed={first.seed} [{first.kind}] {first.message}"
        )
    return {
        "kind": "sweep",
        "policy": payload["policy"],
        "mix": payload["mix"],
        "epochs": payload["epochs"],
        "seeds": payload["seeds"],
        "cells": [
            {
                "params": dict(c.params),
                "metrics": {m: {"mean": v[0], "ci95": v[1]} for m, v in c.metrics.items()},
            }
            for c in cells
        ],
    }


def _run_scenario(payload: dict, cell_cache_dir: str | None) -> dict:
    from repro.harness.recipes import scenario_summary_json
    from repro.scenario import ScenarioSpec, run_scenario

    if payload["name"] is not None:
        spec_or_name = payload["name"]
    else:
        spec_or_name = ScenarioSpec.from_dict(payload["spec"])
    sres = run_scenario(
        spec_or_name,
        seed=payload["seed"],
        policy=payload["policy"],
        epochs=payload["epochs"],
    )
    out = scenario_summary_json(sres, window=payload["window"])
    out["kind"] = "scenario"
    return out


def _run_fleet(payload: dict, cell_cache_dir: str | None) -> dict:
    from repro.harness.recipes import fleet_run

    result = fleet_run(
        name=payload["name"],
        spec=payload["spec"],
        policy=payload["policy"],
        placer=payload["placer"],
        seed=payload["seed"],
    )
    out = result.to_dict()
    out["kind"] = "fleet"
    return out


_RUNNERS = {"run": _run_run, "sweep": _run_sweep, "scenario": _run_scenario,
            "fleet": _run_fleet}
