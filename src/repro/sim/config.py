"""Configuration dataclasses with the paper's hardware defaults.

The evaluation testbed (paper §5.1):

* Intel Xeon Platinum 8378A, one socket used: 32 cores, 48 MB LLC.
* Fast tier: locally-attached DRAM, 32 GB, 70 ns unloaded latency.
* Slow tier: emulated CXL via remote NUMA node, 256 GB, 162 ns.
* 205 GB/s local memory bandwidth, 25 GB/s UPI per direction.

The co-location experiments run at a scaled granularity (1 simulated page
≙ 10 MB, see DESIGN.md §4) so working sets stay tractable in Python while
all capacity ratios are preserved.  The microscopic migration experiments
(Figures 2/3/4/7) run at true 4 KiB granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.sim.units import GiB, ns_to_cycles


@dataclass(frozen=True)
class TierConfig:
    """Static description of one memory tier."""

    name: str
    capacity_bytes: int
    load_latency_ns: float
    bandwidth_gbps: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError(f"tier {self.name!r}: capacity must be positive")
        if self.load_latency_ns <= 0:
            raise ValueError(f"tier {self.name!r}: latency must be positive")
        if self.bandwidth_gbps <= 0:
            raise ValueError(f"tier {self.name!r}: bandwidth must be positive")

    @property
    def load_latency_cycles(self) -> int:
        """Unloaded access latency in cycles."""
        return ns_to_cycles(self.load_latency_ns)


@dataclass(frozen=True)
class MachineConfig:
    """Hardware description used to build a :class:`repro.machine.Machine`."""

    n_cores: int = 32
    tlb_entries: int = 1536  # combined L2 dTLB reach of a modern Xeon core
    tlb_miss_penalty_ns: float = 25.0  # page-walk latency on a miss
    ipi_deliver_ns: float = 1200.0  # IPI delivery + ack round trip (~3.6K cycles)
    fast: TierConfig = field(
        default_factory=lambda: TierConfig(
            name="fast", capacity_bytes=32 * GiB, load_latency_ns=70.0, bandwidth_gbps=205.0
        )
    )
    slow: TierConfig = field(
        default_factory=lambda: TierConfig(
            name="slow", capacity_bytes=256 * GiB, load_latency_ns=162.0, bandwidth_gbps=25.0
        )
    )

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("machine needs at least one core")
        if self.tlb_entries <= 0:
            raise ValueError("TLB must have at least one entry")

    @property
    def tiers(self) -> tuple[TierConfig, TierConfig]:
        return (self.fast, self.slow)

    def with_fast_gb(self, fast_gb: float) -> "MachineConfig":
        """Copy of this config with the fast tier resized to ``fast_gb`` GiB."""
        return replace(self, fast=replace(self.fast, capacity_bytes=int(fast_gb * GiB)))


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the epoch-driven co-location simulator."""

    #: Bytes of real memory represented by one simulated page in the
    #: co-location experiments (DESIGN.md §4).  10 MB keeps the paper's
    #: 32 GB fast tier at 3 200 simulated pages.
    page_unit_bytes: int = 10 * 1000 * 1000
    #: Simulated wall-clock per epoch, in seconds.
    epoch_seconds: float = 1.0

    def __post_init__(self) -> None:
        if self.page_unit_bytes <= 0:
            raise ValueError("page_unit_bytes must be positive")
        if self.epoch_seconds <= 0:
            raise ValueError("epoch_seconds must be positive")

    def pages_for(self, nbytes: int) -> int:
        """Simulated page count representing ``nbytes`` of real memory."""
        return -(-nbytes // self.page_unit_bytes)


def paper_machine_config(n_cores: int = 32) -> MachineConfig:
    """The paper's single-socket testbed (§5.1) with ``n_cores`` cores."""
    return MachineConfig(n_cores=n_cores)
