"""Tracing must never perturb the simulation.

Two guarantees: (1) a traced run emits a bit-identical event stream on
the same seed — cycle timestamps only, no wall clock anywhere; (2) a
traced run produces exactly the numbers an untraced run produces, so
figure benchmarks are unaffected by observability.
"""

from __future__ import annotations

import numpy as np

from repro.harness import ColocationExperiment
from repro.obs.trace import get_tracer
from repro.sim.config import SimulationConfig
from repro.workloads.mixes import dilemma_pair


def run_once(*, seed: int = 11, epochs: int = 5):
    sim = SimulationConfig(epoch_seconds=0.5)
    mix = dilemma_pair(sim, seed=seed, accesses_per_thread=1500)
    exp = ColocationExperiment("vulcan", mix, sim=sim, seed=seed)
    return exp.run(epochs)


def test_same_seed_traced_runs_emit_identical_streams():
    tracer = get_tracer()
    try:
        tracer.enable()
        run_once()
        first = tracer.events()
        tracer.enable()  # fresh buffer + clock
        run_once()
        second = tracer.events()
    finally:
        tracer.disable()
        tracer.reset()
    assert len(first) == len(second) > 0
    assert first == second  # TraceEvent is a frozen dataclass: deep equality


def test_tracing_does_not_change_results():
    plain = run_once()
    tracer = get_tracer()
    try:
        tracer.enable()
        traced = run_once()
    finally:
        tracer.disable()
        tracer.reset()
    for pid, ts in plain.workloads.items():
        other = traced.workloads[pid]
        assert ts.ops == other.ops
        assert ts.fast_pages == other.fast_pages
        assert ts.fthr_true == other.fthr_true
        assert ts.promotions == other.promotions
        assert ts.demotions == other.demotions
    assert np.array_equal(plain.migration_cycles, traced.migration_cycles)
