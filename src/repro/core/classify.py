"""Workload (LC/BE) and page (Table 1) classification.

**Service class.**  Vulcan classifies black-box workloads as
latency-critical or best-effort "based on resource utilization patterns"
(citing Themis).  Here every workload declares its class (the operator
whitelists apps anyway, §3.2); a scenario's ``qos_change`` event
re-declares it mid-run.

**Page class.**  Table 1 crosses thread ownership with access pattern::

    private + read-intensive  → ★★★★  async copy
    shared  + read-intensive  → ★★★   async copy
    private + write-intensive → ★★    sync copy
    shared  + write-intensive → ★     sync copy
"""

from __future__ import annotations

import enum


class ServiceClass(enum.Enum):
    LC = "latency-critical"
    BE = "best-effort"


class PageClass(enum.IntEnum):
    """Table 1 rows; the integer is the priority (higher = migrate first)."""

    SHARED_WRITE = 1  # ★
    PRIVATE_WRITE = 2  # ★★
    SHARED_READ = 3  # ★★★
    PRIVATE_READ = 4  # ★★★★

    @property
    def use_async_copy(self) -> bool:
        """Table 1 strategy column: async for read-intensive classes."""
        return self in (PageClass.PRIVATE_READ, PageClass.SHARED_READ)

    @property
    def is_private(self) -> bool:
        return self in (PageClass.PRIVATE_READ, PageClass.PRIVATE_WRITE)

    @property
    def is_write_intensive(self) -> bool:
        return self in (PageClass.PRIVATE_WRITE, PageClass.SHARED_WRITE)


#: Write fraction above which a page counts as write-intensive.  MTM
#: uses a similar cut; writes are costlier than their count suggests
#: (dirty-page retries, sync stalls), hence the < 0.5 threshold.
WRITE_INTENSIVE_THRESHOLD = 0.25


def classify_page(*, private: bool, write_fraction: float, threshold: float = WRITE_INTENSIVE_THRESHOLD) -> PageClass:
    """Map ownership + measured write fraction to a Table 1 class."""
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0,1], got {write_fraction}")
    write_intensive = write_fraction >= threshold
    if private:
        return PageClass.PRIVATE_WRITE if write_intensive else PageClass.PRIVATE_READ
    return PageClass.SHARED_WRITE if write_intensive else PageClass.SHARED_READ
