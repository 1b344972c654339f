"""Cores and inter-processor interrupts.

A :class:`Core` records which thread is scheduled on it.  The
:class:`CpuComplex` delivers IPIs: the cost model follows the measured
behaviour that a shootdown's initiator waits for every targeted core to
acknowledge, so cost grows with the number of targets and a slow
(busy/deep-sleep) responder stretches the whole operation.  Which cores
a shootdown targets is resolved by the migration engine from the
replicated page tables and its thread→core pinning.
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


@dataclass
class Core:
    """One CPU core: an id and the thread it runs."""

    core_id: int
    thread_id: int | None = None  # simulator-global thread id, None = idle

    def schedule(self, thread_id: int | None) -> None:
        """Context-switch this core to ``thread_id`` (None parks it)."""
        self.thread_id = thread_id


class CpuComplex:
    """All cores of the (single-socket) machine plus IPI machinery."""

    def __init__(self, n_cores: int, ipi_deliver_ns: float = 1200.0) -> None:
        if n_cores <= 0:
            raise ValueError("need at least one core")
        self.cores: list[Core] = [Core(core_id=i) for i in range(n_cores)]
        self.ipi_deliver_cycles = ns_to_cycles(ipi_deliver_ns)
        self.ipi_stats = IpiStats()

    @property
    def n_cores(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def cores_running(self, thread_ids: set[int]) -> list[Core]:
        """Cores currently executing any of ``thread_ids``."""
        return [c for c in self.cores if c.thread_id is not None and c.thread_id in thread_ids]

    def schedule_thread(self, thread_id: int, core_id: int) -> None:
        """Pin ``thread_id`` onto ``core_id`` (the paper pins 8 threads/app)."""
        self.cores[core_id].schedule(thread_id)

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
