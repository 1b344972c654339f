"""Scenario determinism: same seed + spec ⇒ bit-identical everything.

Covers repeated in-process runs and the obs event stream produced
under tracing.
"""

from __future__ import annotations

from repro.obs.trace import get_tracer
from repro.scenario import ScenarioEvent, ScenarioSpec, WorkloadDef, run_scenario
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig

UNIT = 10**6

MICRO_SPEC = ScenarioSpec(
    name="micro_churn",
    n_epochs=10,
    seed=5,
    workloads=(
        WorkloadDef(key="a", kind="memcached", service="LC", rss_pages=100,
                    n_threads=2, accesses_per_thread=800),
        WorkloadDef(key="b", kind="liblinear", service="BE", rss_pages=120,
                    n_threads=2, start_epoch=1, accesses_per_thread=800),
    ),
    events=(
        ScenarioEvent(epoch=2, action="faults_set", params={"lost_async": 0.3, "aborted_sync": 0.3}),
        ScenarioEvent(epoch=5, action="depart", target="b"),
        ScenarioEvent(epoch=7, action="restart", target="b"),
    ),
).validate()


def _micro_machine() -> MachineConfig:
    return MachineConfig(
        n_cores=16,
        fast=TierConfig(name="fast", capacity_bytes=160 * UNIT, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=1024 * UNIT, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )


def run_micro_scenario(*, seed: int):
    sres = run_scenario(
        MICRO_SPEC,
        seed=seed,
        machine_config=_micro_machine(),
        sim=SimulationConfig(page_unit_bytes=UNIT, epoch_seconds=0.5),
        cores_per_workload=4,
    )
    return sres


def test_same_seed_same_spec_bit_identical():
    a = run_micro_scenario(seed=5)
    b = run_micro_scenario(seed=5)
    assert a.to_dict() == b.to_dict()
    assert a.spec_hash == b.spec_hash


def test_different_seed_differs():
    a = run_micro_scenario(seed=5)
    b = run_micro_scenario(seed=6)
    assert a.result.to_dict() != b.result.to_dict()


def test_obs_stream_is_deterministic():
    tracer = get_tracer()

    def capture():
        tracer.enable()
        try:
            run_micro_scenario(seed=5)
            return [
                (e.kind.value, e.name, e.ts, e.pid, repr(sorted((e.args or {}).items())))
                for e in tracer.events()
            ]
        finally:
            tracer.disable()

    assert capture() == capture()
