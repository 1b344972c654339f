"""Colloid-style latency balancing."""

import pytest

from repro.core.colloid import LatencyBalancer


def test_migrates_while_fast_is_faster():
    b = LatencyBalancer()
    assert b.update(210.0, 600.0) is True
    assert not b.suspended
    assert b.last_advantage_ratio == pytest.approx(600 / 210)


def test_suspends_when_advantage_evaporates():
    b = LatencyBalancer(suspend_margin=0.10)
    assert b.update(500.0, 530.0) is False  # ratio 1.06 < 1.10
    assert b.suspended
    assert b.suspensions == 1


def test_hysteresis_prevents_flapping():
    b = LatencyBalancer(suspend_margin=0.10, resume_margin=0.25)
    b.update(500.0, 530.0)  # suspend at 1.06
    assert b.update(500.0, 580.0) is False  # 1.16: above suspend, below resume
    assert b.update(500.0, 640.0) is True  # 1.28: resumed
    assert b.resumes == 1
    # Dropping again re-suspends.
    assert b.update(500.0, 540.0) is False
    assert b.suspensions == 2


def test_disabled_always_migrates():
    b = LatencyBalancer(enabled=False)
    assert b.update(500.0, 500.0) is True
    assert not b.suspended


def test_validation():
    with pytest.raises(ValueError):
        LatencyBalancer(suspend_margin=-0.1)
    with pytest.raises(ValueError):
        LatencyBalancer(suspend_margin=0.3, resume_margin=0.2)
    b = LatencyBalancer()
    with pytest.raises(ValueError):
        b.update(0.0, 100.0)


def test_vulcan_policy_integration():
    """The policy stops migrating while the balancer says suspend."""
    import numpy as np

    from repro.core.classify import ServiceClass
    from repro.harness import ColocationExperiment
    from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
    from repro.workloads.base import WorkloadSpec
    from repro.workloads.memcached import MemcachedWorkload

    unit = 10**6
    mc = MachineConfig(
        n_cores=8,
        fast=TierConfig(name="fast", capacity_bytes=64 * unit, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=512 * unit, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )
    sim = SimulationConfig(page_unit_bytes=unit, epoch_seconds=0.5)
    wl = MemcachedWorkload(
        WorkloadSpec(name="w", service=ServiceClass.LC, rss_pages=128, n_threads=2,
                     accesses_per_thread=2000, populate_tier=1),
        seed=0,
    )
    exp = ColocationExperiment(
        "vulcan", [wl], machine_config=mc, sim=sim, seed=1, cores_per_workload=4,
        policy_kwargs={"colloid": True},
    )
    res = exp.run(6)
    # Force-suspend and verify migrations stop.
    exp.policy.balancer.suspended = True
    exp.policy._migrate_this_epoch = False
    before = sum(rt.engine.stats.pages_moved for rt in exp.policy.workloads.values())
    exp.policy._plan_and_migrate()
    after = sum(rt.engine.stats.pages_moved for rt in exp.policy.workloads.values())
    assert after == before
    assert res.n_epochs == 6
