"""Canonical experiment recipes behind the ``repro`` commands.

The standard run, the sweep cell, the steady-state CFI and the JSON
summary builders live here rather than in ``cli.py``, so the tests, the
golden capture, the benchmark workloads and the fleet's node telemetry
share one definition of each with the CLI.

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

#: colocation mixes :func:`make_mix` builds
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
    """The ``repro run --json`` payload."""
    from repro.harness.export import to_json

    payload = to_json(result)
    payload["mix"] = mix
    payload["seed"] = seed
    payload["cfi"] = steady_cfi(result)
    return payload


# -- scenarios -------------------------------------------------------------------

def scenario_summary_json(sres, *, window: int) -> dict:
    """The ``repro scenario run --json`` payload: full result + churn
    fairness."""
    from repro.metrics.fairness import churn_fairness

    out = sres.to_dict()
    out["fairness_under_churn"] = churn_fairness(sres.result, window=window)
    return out


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
