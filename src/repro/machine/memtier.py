"""Memory tier model: capacity, latency, bandwidth.

Tiers hold *frames*; allocation policy lives in
:mod:`repro.mm.frame_alloc`.  Here we model the performance surface: an
unloaded access latency plus a simple loaded-latency ramp as consumed
bandwidth approaches the tier's peak, which is what makes a BE workload's
bandwidth hunger visible to co-runners.
"""

from __future__ import annotations

from repro.sim.config import TierConfig
from repro.sim.units import PAGE_SIZE


class MemoryTier:
    """One tier of the memory hierarchy.

    Parameters
    ----------
    config:
        Static tier description (capacity/latency/bandwidth).
    tier_id:
        0 = fast, 1 = slow by convention throughout the repo.
    page_size:
        Frame granularity; co-location experiments use a scaled page unit.
    """

    def __init__(self, config: TierConfig, tier_id: int, page_size: int = PAGE_SIZE) -> None:
        self.config = config
        self.tier_id = tier_id
        self.page_size = page_size
        self.total_frames = config.capacity_bytes // page_size
        if self.total_frames <= 0:
            raise ValueError(f"tier {config.name!r} smaller than one page")

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def load_latency_cycles(self) -> int:
        return self.config.load_latency_cycles

    def access_latency_cycles(self, utilization: float = 0.0) -> float:
        """Loaded access latency.

        ``utilization`` is consumed/peak bandwidth in [0, 1).  We use the
        standard closed-form M/M/1-style ramp ``unloaded / (1 - u)``
        capped at 4x unloaded, which matches the qualitative curves in
        tiered-memory measurement studies (latency roughly flat until
        ~60-70% utilization, then climbing steeply).
        """
        u = min(max(utilization, 0.0), 0.96)
        lat = self.load_latency_cycles / (1.0 - u)
        return min(lat, 4.0 * self.load_latency_cycles)
