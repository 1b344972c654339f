"""Machine/simulation configuration defaults and validation."""

import pytest

from repro.sim.config import MachineConfig, SimulationConfig, TierConfig, paper_machine_config
from repro.sim.units import GiB


def test_paper_defaults_match_section_5_1():
    cfg = paper_machine_config()
    assert cfg.n_cores == 32
    assert cfg.fast.capacity_bytes == 32 * GiB
    assert cfg.slow.capacity_bytes == 256 * GiB
    assert cfg.fast.load_latency_ns == 70.0
    assert cfg.slow.load_latency_ns == 162.0
    assert cfg.fast.bandwidth_gbps == 205.0
    assert cfg.slow.bandwidth_gbps == 25.0


def test_tier_latency_cycles():
    t = TierConfig(name="t", capacity_bytes=GiB, load_latency_ns=100.0, bandwidth_gbps=10.0)
    assert t.load_latency_cycles == 300


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(capacity_bytes=0, load_latency_ns=1.0, bandwidth_gbps=1.0),
        dict(capacity_bytes=1, load_latency_ns=0.0, bandwidth_gbps=1.0),
        dict(capacity_bytes=1, load_latency_ns=1.0, bandwidth_gbps=0.0),
    ],
)
def test_tier_validation(kwargs):
    with pytest.raises(ValueError):
        TierConfig(name="bad", **kwargs)


def test_machine_validation():
    with pytest.raises(ValueError):
        MachineConfig(n_cores=0)
    with pytest.raises(ValueError):
        MachineConfig(tlb_entries=0)


def test_sim_config_pages_for_scale():
    sim = SimulationConfig()
    # 1 page = 10 MB: the paper's 51 GB Memcached RSS → 5100 pages.
    assert sim.pages_for(51 * 10**9) == 5100
    assert sim.pages_for(1) == 1


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(page_unit_bytes=0)
    with pytest.raises(ValueError):
        SimulationConfig(epoch_seconds=0.0)
