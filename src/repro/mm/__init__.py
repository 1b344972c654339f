"""OS memory-management substrate.

Implements the structures Vulcan modifies in the real kernel: 64-bit
PTEs (with the paper's thread-ownership bits 52-58), a vpn-indexed page
table, per-thread page-table replication with shared leaf tables,
per-tier frame allocation with watermarks, per-CPU LRU pagevecs (the
``lru_add_drain_all()`` cost source), the five-phase migration engine
with sync/async/transactional variants, transparent huge pages, and
Nomad-style page shadowing.
"""

from repro.mm.address_space import AddressSpace, Process, Vma
from repro.mm.frame_alloc import FrameAllocator, OutOfFramesError, TierFrames
from repro.mm.lru import LruSubsystem, PerCpuPagevec
from repro.mm.migration import (
    MigrationEngine,
    MigrationOutcome,
    MigrationPhase,
    MigrationRequest,
    MigrationStats,
    OptimizationFlags,
)
from repro.mm.migration_costs import MigrationCostModel, SinglePageBreakdown
from repro.mm.page import PageState, PhysPage
from repro.mm.pte import (
    PTE_SHARED_TID,
    Pte,
    pte_clear_flag,
    pte_make,
    pte_set_flag,
)
from repro.mm.replication import ReplicatedPageTables
from repro.mm.shadow import ShadowTracker
from repro.mm.thp import HugePageManager

__all__ = [
    "AddressSpace",
    "Process",
    "Vma",
    "FrameAllocator",
    "TierFrames",
    "OutOfFramesError",
    "LruSubsystem",
    "PerCpuPagevec",
    "MigrationEngine",
    "MigrationOutcome",
    "MigrationPhase",
    "MigrationRequest",
    "MigrationStats",
    "OptimizationFlags",
    "MigrationCostModel",
    "SinglePageBreakdown",
    "PhysPage",
    "PageState",
    "Pte",
    "pte_make",
    "pte_set_flag",
    "pte_clear_flag",
    "PTE_SHARED_TID",
    "ReplicatedPageTables",
    "ShadowTracker",
    "HugePageManager",
]
