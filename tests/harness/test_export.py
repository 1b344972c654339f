"""JSON result export."""

import json

import pytest

from repro.core.classify import ServiceClass
from repro.harness import ColocationExperiment
from repro.harness.export import to_json
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.memcached import MemcachedWorkload

UNIT = 10**6


@pytest.fixture(scope="module")
def result():
    mc = MachineConfig(
        n_cores=8,
        fast=TierConfig(name="fast", capacity_bytes=64 * UNIT, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=512 * UNIT, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )
    sim = SimulationConfig(page_unit_bytes=UNIT, epoch_seconds=0.5)
    wls = [
        MemcachedWorkload(
            WorkloadSpec(name=n, service=ServiceClass.LC, rss_pages=100, n_threads=2,
                         start_epoch=s, accesses_per_thread=1500),
            seed=i,
        )
        for i, (n, s) in enumerate([("a", 0), ("b", 2)])
    ]
    exp = ColocationExperiment("memtis", wls, machine_config=mc, sim=sim, seed=1, cores_per_workload=4)
    return exp.run(4)


def test_json_roundtrip(result):
    blob = to_json(result)
    encoded = json.dumps(blob)  # must be serializable
    decoded = json.loads(encoded)
    assert decoded["policy"] == "memtis"
    assert decoded["n_epochs"] == 4
    assert set(decoded["workloads"]) == {"a", "b"}
    assert len(decoded["workloads"]["a"]["ops"]) == 4
    assert len(decoded["free_fast_pages"]) == 4
    # Epochs of the latecomer start at its admission.
    assert decoded["workloads"]["b"]["epoch"] == [2, 3]
