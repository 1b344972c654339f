"""Simulation substrate: machine and run configuration, and units.

This package holds the configuration every other subsystem is built
from and the cycle/byte/page unit conversions they share.  The
simulator is epoch-driven, and every component seeds its own generator.
"""

from repro.sim.config import (
    MachineConfig,
    SimulationConfig,
    TierConfig,
    paper_machine_config,
)
from repro.sim.units import (
    CYCLES_PER_NS,
    GiB,
    KiB,
    MiB,
    PAGE_SHIFT,
    PAGE_SIZE,
    HUGE_PAGE_SIZE,
    BASE_PAGES_PER_HUGE_PAGE,
    cycles_to_ns,
    cycles_to_seconds,
    ns_to_cycles,
    pages_for_bytes,
    seconds_to_cycles,
)

__all__ = [
    "MachineConfig",
    "SimulationConfig",
    "TierConfig",
    "paper_machine_config",
    "CYCLES_PER_NS",
    "KiB",
    "MiB",
    "GiB",
    "PAGE_SIZE",
    "PAGE_SHIFT",
    "HUGE_PAGE_SIZE",
    "BASE_PAGES_PER_HUGE_PAGE",
    "ns_to_cycles",
    "cycles_to_ns",
    "cycles_to_seconds",
    "seconds_to_cycles",
    "pages_for_bytes",
]
