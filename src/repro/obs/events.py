"""Typed trace events and the bounded ring buffer that holds them.

Events are stamped with the *simulation* cycle clock (see
:class:`repro.obs.trace.Tracer`), never wall clock, so the stream from a
seeded run is deterministic.  The buffer is bounded: when full, the
oldest events are pushed out and counted in :attr:`RingBuffer.dropped`
— tracing a long run degrades to "most recent window" instead of
unbounded memory growth.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator


class EventKind(str, enum.Enum):
    """What a :class:`TraceEvent` describes."""

    #: one migration phase charged (prep/trap/unmap/shootdown/copy/remap)
    MIGRATION_PHASE = "migration_phase"
    #: a TLB shootdown delivered, with its resolved scope
    TLB_SHOOTDOWN = "tlb_shootdown"
    #: CBFRP moved units from a donor's surplus to a borrower
    CREDIT_GRANT = "credit_grant"
    #: CBFRP expropriated units back from an over-GFMC BE task for an LC
    CREDIT_RECLAIM = "credit_reclaim"
    #: end-of-round CBFRP credit balance snapshot for one workload
    CREDIT_BALANCE = "credit_balance"
    #: a page served from the promotion queues (about to be promoted)
    QUEUE_PROMOTION = "queue_promotion"
    #: a page selected for demotion by the daemon
    QUEUE_DEMOTION = "queue_demotion"
    #: an epoch boundary in the harness loop
    EPOCH = "epoch"
    #: a workload was torn down mid-run (scenario departure)
    WORKLOAD_DEPART = "workload_depart"
    #: a departed workload was re-admitted under a fresh pid
    WORKLOAD_RESTART = "workload_restart"
    #: a live workload's service class / GPT changed
    QOS_CHANGE = "qos_change"
    #: fast-tier frames went offline/online or the interconnect degraded
    CAPACITY_CHANGE = "capacity_change"
    #: a live workload's access pattern was reshaped (scenario phase shift)
    PHASE_SHIFT = "phase_shift"
    #: a migration fault was injected (aborted-sync / lost-async / poisoned-shadow)
    FAULT_INJECTED = "fault_injected"
    #: one fleet sync round completed (all active nodes advanced)
    FLEET_ROUND = "fleet_round"
    #: the global placer assigned a previously unplaced workload to a node
    FLEET_PLACEMENT = "fleet_placement"
    #: the global placer live-migrated a workload between nodes
    FLEET_MIGRATION = "fleet_migration"
    #: a workload was evacuated off a draining node
    FLEET_EVACUATION = "fleet_evacuation"
    #: a fleet node changed membership (drain out / join in)
    FLEET_NODE_CHANGE = "fleet_node_change"
    #: a named duration (``tracer.span``)
    SPAN = "span"
    #: a named point event (``tracer.instant``)
    INSTANT = "instant"


@dataclass(frozen=True)
class TraceEvent:
    """One observation.

    ``ts`` is simulation cycles; ``dur`` (cycles) is non-zero only for
    spans and phase charges.  ``pid`` is the owning workload when the
    site knows it, ``args`` carries kind-specific detail (phase name,
    shootdown scope, credit balances, ...).
    """

    kind: EventKind
    name: str
    ts: float
    dur: float = 0.0
    pid: int | None = None
    args: dict[str, Any] = field(default_factory=dict)


class RingBuffer:
    """Fixed-capacity event store with drop-oldest overflow."""

    def __init__(self, capacity: int = 262_144) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self._events: deque[TraceEvent] = deque(maxlen=capacity)
        self.dropped = 0  # events pushed out by overflow

    def __len__(self) -> int:
        return len(self._events)

    def append(self, event: TraceEvent) -> None:
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(event)

    def __iter__(self) -> Iterator[TraceEvent]:
        """Oldest → newest."""
        return iter(self._events)

    def snapshot(self) -> list[TraceEvent]:
        """The current contents as a list, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()
        self.dropped = 0
