"""Hardware substrate: cores, memory tiers, interconnect.

These models are *structural plus cost-accounted*: the core complex
delivers and counts the shootdown IPIs whose scope the mm layer derives
from the replicated page tables, while latencies and IPI costs come from
the calibrated constants in :mod:`repro.mm.migration_costs` and
:mod:`repro.sim.config`.  TLB contents are not modelled; TLB reach enters
analytically through ``MachineConfig.tlb_entries``.
"""

from repro.machine.cpu import CpuComplex, IpiStats
from repro.machine.interconnect import Interconnect
from repro.machine.memtier import MemoryTier
from repro.machine.platform import Machine, build_machine

__all__ = [
    "CpuComplex",
    "IpiStats",
    "Interconnect",
    "MemoryTier",
    "Machine",
    "build_machine",
]
