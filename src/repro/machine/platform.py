"""Machine assembly: cores + tiers + interconnect."""

from __future__ import annotations

from repro.machine.cpu import CpuComplex
from repro.machine.interconnect import Interconnect
from repro.machine.memtier import MemoryTier
from repro.sim.config import MachineConfig
from repro.sim.units import PAGE_SIZE

FAST_TIER = 0
SLOW_TIER = 1


class Machine:
    """The simulated platform every experiment runs on.

    Attributes
    ----------
    cpu:
        The core complex (core count + IPIs).
    tiers:
        ``tiers[0]`` is fast DRAM, ``tiers[1]`` the slow CXL-like tier.
    link:
        Cross-tier interconnect for page copies.
    """

    def __init__(self, config: MachineConfig, page_size: int = PAGE_SIZE) -> None:
        self.config = config
        self.page_size = page_size
        self.cpu = CpuComplex(n_cores=config.n_cores, ipi_deliver_ns=config.ipi_deliver_ns)
        self.tiers = [
            MemoryTier(config.fast, tier_id=FAST_TIER, page_size=page_size),
            MemoryTier(config.slow, tier_id=SLOW_TIER, page_size=page_size),
        ]
        self.link = Interconnect(bandwidth_gbps=min(config.slow.bandwidth_gbps, 25.0))

    @property
    def fast(self) -> MemoryTier:
        return self.tiers[FAST_TIER]

    @property
    def slow(self) -> MemoryTier:
        return self.tiers[SLOW_TIER]

    def tier(self, tier_id: int) -> MemoryTier:
        return self.tiers[tier_id]

    def cross_tier_copy_cycles(self, nbytes: int, concurrent_streams: int = 1) -> int:
        """Cost of copying ``nbytes`` between tiers: bounded by the link."""
        return self.link.transfer_cost_cycles(nbytes, concurrent_streams)


def build_machine(config: MachineConfig | None = None, page_size: int = PAGE_SIZE) -> Machine:
    """Construct a :class:`Machine` (paper defaults when no config given)."""
    cfg = config if config is not None else MachineConfig()
    return Machine(cfg, page_size=page_size)
