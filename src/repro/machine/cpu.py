"""The core complex and inter-processor interrupts.

The :class:`CpuComplex` delivers IPIs: the cost model follows the
measured behaviour that a shootdown's initiator waits for every
targeted core to acknowledge, so cost grows with the number of targets
and a slow (busy/deep-sleep) responder stretches the whole operation.
Which cores a shootdown targets is resolved by the migration engine
from the replicated page tables and its thread→core pinning.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.units import ns_to_cycles


@dataclass
class IpiStats:
    """Aggregate IPI accounting for the whole complex."""

    broadcasts: int = 0
    unicast_targets: int = 0
    cycles_spent: int = 0


class CpuComplex:
    """The cores of the (single-socket) machine plus IPI machinery."""

    def __init__(self, n_cores: int, ipi_deliver_ns: float = 1200.0) -> None:
        if n_cores <= 0:
            raise ValueError("need at least one core")
        self.n_cores = n_cores
        self.ipi_deliver_cycles = ns_to_cycles(ipi_deliver_ns)
        self.ipi_stats = IpiStats()

    def deliver_ipis(self, target_core_ids: list[int]) -> int:
        """Deliver a synchronous IPI round to ``target_core_ids``.

        Returns the cycle cost charged to the initiating core.  Cost =
        a fixed send plus per-target acknowledgement latency; targets are
        interrupted in parallel but the initiator spin-waits for the last
        ack, which in practice grows roughly linearly with target count
        on the x2APIC unicast path Linux uses for small masks.
        """
        n = len(target_core_ids)
        if n == 0:
            return 0
        self.ipi_stats.broadcasts += 1
        self.ipi_stats.unicast_targets += n
        # Fixed initiation + per-target ack accumulation.
        cost = self.ipi_deliver_cycles + (n - 1) * (self.ipi_deliver_cycles // 4)
        self.ipi_stats.cycles_spent += cost
        return cost
