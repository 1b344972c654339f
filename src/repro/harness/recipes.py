"""Canonical experiment recipes shared by the CLI and the service.

The determinism contract for the control plane is that a job submitted
over HTTP computes *the same function* as the equivalent ``repro``
command — bit-identical metrics, not "close enough".  The only robust
way to guarantee that is for both entry points to call one shared
recipe, so the standard run / sweep-cell / summary builders live here
rather than in ``cli.py``.

Everything in this module is importable from a forked worker process:
no closures, no argparse, no stdout.
"""

from __future__ import annotations

import numpy as np

from repro.harness.experiment import ColocationExperiment, ExperimentResult
from repro.metrics.fairness import cfi
from repro.sim.config import MachineConfig, SimulationConfig
from repro.workloads.mixes import dilemma_pair, paper_colocation_mix

#: steady-state window (epochs) every summary metric reads over
STEADY_WINDOW = 10

#: colocation mixes a run/sweep payload may name
MIX_NAMES = ("paper", "dilemma")


def make_mix(name: str, sim: SimulationConfig, accesses_per_thread: int, seed: int):
    """The named workload mix; raises ``ValueError`` for unknown names."""
    if name == "paper":
        return paper_colocation_mix(sim, seed=seed, accesses_per_thread=accesses_per_thread)
    if name == "dilemma":
        return dilemma_pair(sim, seed=seed, accesses_per_thread=accesses_per_thread)
    raise ValueError(f"unknown mix {name!r}: pick from {MIX_NAMES}")


def standard_run(policy: str, mix: str, epochs: int, accesses: int, seed: int) -> ExperimentResult:
    """The canonical single run: what ``repro run`` executes."""
    sim = SimulationConfig(epoch_seconds=2.0)
    exp = ColocationExperiment(policy, make_mix(mix, sim, accesses, seed), sim=sim, seed=seed)
    return exp.run(epochs)


def steady_cfi(result: ExperimentResult, window: int = STEADY_WINDOW) -> float:
    """FTHR-weighted CFI (Eq. 4) over the steady-state window."""
    alloc = {p: np.asarray(t.fast_pages[-window:], float) for p, t in result.workloads.items()}
    fthr = {p: np.asarray(t.fthr_true[-window:], float) for p, t in result.workloads.items()}
    return cfi(alloc, fthr)


def run_summary_json(result: ExperimentResult, *, mix: str, seed: int) -> dict:
    """The ``repro run --json`` payload (and a run job's result body)."""
    from repro.harness.export import to_json

    payload = to_json(result)
    payload["mix"] = mix
    payload["seed"] = seed
    payload["cfi"] = steady_cfi(result)
    return payload


# -- scenarios -------------------------------------------------------------------

def scenario_summary_json(sres, *, window: int) -> dict:
    """The canonical scenario payload: full result + churn fairness.

    Shared by ``repro scenario run --json``, the service's scenario
    runner, and the fuzzer's CLI≡service parity check — one assembly
    function is what makes the three outputs comparable byte-for-byte.
    """
    from repro.metrics.fairness import churn_fairness

    out = sres.to_dict()
    out["fairness_under_churn"] = churn_fairness(sres.result, window=window)
    return out


# -- fleet -----------------------------------------------------------------------

def fleet_run(
    *,
    name: str | None = None,
    spec: dict | None = None,
    policy: str | None = None,
    placer: str | None = None,
    seed: int | None = None,
    check: bool = False,
):
    """The canonical fleet run: what ``repro fleet run`` executes.

    ``name`` picks a canned fleet scenario, ``spec`` an inline
    ``FleetSpec.to_dict`` form (exactly one must be given); the
    remaining arguments override the spec's fields.  Shared with the
    service's fleet job runner so service ≡ CLI holds bit-for-bit: both
    emit the result's ``to_dict()``.
    """
    from repro.fleet import FleetSpec, get_fleet_scenario, run_fleet

    if (name is None) == (spec is None):
        raise ValueError("fleet_run needs exactly one of name= or spec=")
    fspec = get_fleet_scenario(name) if name is not None else FleetSpec.from_dict(spec)
    overrides = {
        k: v for k, v in (("policy", policy), ("placer", placer), ("seed", seed))
        if v is not None
    }
    if overrides:
        fspec = fspec.with_overrides(**overrides)
    return run_fleet(fspec, check=check)


# -- sweep cells -----------------------------------------------------------------

def sweep_cell(fast_gb: float, *, policy: str, mix: str, epochs: int, accesses: int, seed: int):
    """One fast-tier-size sweep cell: the chosen mix on a machine with
    ``fast_gb`` of fast memory.  Module-level (not a closure) so worker
    processes can import it under any multiprocessing start method."""
    sim = SimulationConfig(epoch_seconds=2.0)
    exp = ColocationExperiment(
        policy, make_mix(mix, sim, accesses, seed),
        machine_config=MachineConfig().with_fast_gb(fast_gb), sim=sim, seed=seed,
    )
    return exp.run(epochs)


def sweep_mean_ops(result: ExperimentResult) -> float:
    """Steady-window ops/epoch averaged across the co-located workloads."""
    return float(np.mean([np.mean(ts.ops[-STEADY_WINDOW:]) for ts in result.workloads.values()]))


def sweep_cfi(result: ExperimentResult) -> float:
    """Steady-window FTHR-weighted CFI (Eq. 4)."""
    return steady_cfi(result)
