"""Fast-tier partition ledger (§3.3 enforcement).

CBFRP outputs a per-workload fast-memory quota; this ledger holds the
quotas beside each workload's actual usage.  The daemon reads both every
epoch to decide whether a workload may promote (usage < quota) or must
demote (usage > quota, after a CBFRP shrink or an RSS change).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PartitionLedger:
    """Quota vs usage of fast-tier pages per workload."""

    capacity_pages: int
    quotas: dict[int, int] = field(default_factory=dict)
    usage: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.capacity_pages <= 0:
            raise ValueError("capacity must be positive")

    def register(self, pid: int, quota_pages: int = 0) -> None:
        if pid in self.quotas:
            raise ValueError(f"pid {pid} already registered")
        self.quotas[pid] = quota_pages
        self.usage.setdefault(pid, 0)

    def unregister(self, pid: int) -> None:
        self.quotas.pop(pid, None)
        self.usage.pop(pid, None)

    def set_capacity(self, capacity_pages: int) -> None:
        """Capacity event: the enforceable fast-tier size changed.

        Standing quotas are left untouched — they may transiently exceed
        the shrunken capacity until the next CBFRP pass installs a fresh
        allocation that must fit the new value.
        """
        if capacity_pages <= 0:
            raise ValueError("capacity must be positive")
        self.capacity_pages = capacity_pages

    def set_quotas(self, quotas: dict[int, int]) -> None:
        """Install a fresh CBFRP allocation (must fit capacity)."""
        total = sum(quotas.values())
        if total > self.capacity_pages:
            raise ValueError(f"quotas ({total}) exceed capacity ({self.capacity_pages})")
        for pid, q in quotas.items():
            if pid not in self.quotas:
                raise KeyError(f"pid {pid} not registered")
            if q < 0:
                raise ValueError("quota cannot be negative")
            self.quotas[pid] = q

    def set_usage(self, pid: int, pages: int) -> None:
        """Sync usage from the allocator's ground truth."""
        if pages < 0:
            raise ValueError("usage cannot be negative")
        self.usage[pid] = pages
