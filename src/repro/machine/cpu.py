"""The core complex and inter-processor interrupts.

The :class:`CpuComplex` delivers IPIs: the cost model follows the
measured behaviour that a shootdown's initiator waits for every
targeted core to acknowledge, so cost grows with the number of targets
and a slow (busy/deep-sleep) responder stretches the whole operation.
Which cores a shootdown targets is resolved by the migration engine
from the replicated page tables and its thread→core pinning; the
complex prices and counts rounds by their target counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    def ipi_round_cycles(self, n_targets: np.ndarray) -> np.ndarray:
        """Cycle cost to the initiator of one synchronous IPI round per
        element of ``n_targets`` (its target count; 0 costs nothing).

        Cost = a fixed send plus per-target acknowledgement latency;
        targets are interrupted in parallel but the initiator spin-waits
        for the last ack, which in practice grows roughly linearly with
        target count on the x2APIC unicast path Linux uses for small
        masks.
        """
        d = self.ipi_deliver_cycles
        n = np.asarray(n_targets, dtype=np.int64)
        return np.where(n > 0, d + (n - 1) * (d // 4), 0)

    def deliver_ipi_rounds(self, n_targets: np.ndarray) -> None:
        """Deliver one IPI round per element of ``n_targets`` and count
        them: the stats take the integer sums of the rounds' targets
        and :meth:`ipi_round_cycles` costs."""
        sent = n_targets[n_targets > 0]
        rounds, targets = int(sent.size), int(sent.sum())
        d = self.ipi_deliver_cycles
        st = self.ipi_stats
        st.broadcasts += rounds
        st.unicast_targets += targets
        st.cycles_spent += rounds * d + (targets - rounds) * (d // 4)
