"""Four-class priority promotion queues with MLFQ escalation (§3.5).

Pages awaiting promotion are queued by their Table 1 class; within a
queue the hottest page is served first.  A Multi-Level Feedback Queue
rule prevents starvation: a page re-enqueued with grown heat escalates
one priority level once its heat crosses ``boost_factor`` × the median
heat of the class above it — "allowing pages to promote to
higher-priority queues as their heat levels increase".

Implementation: one max-heap per class keyed on (-heat, vpn), with lazy
invalidation (a page re-enqueued with new heat leaves a stale entry that
is skipped on pop) — the standard priority-queue-with-updates idiom.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from repro.core.classify import PageClass
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer


class QueuedPage(NamedTuple):
    """A promotion candidate with its scheduling state."""

    pid: int
    vpn: int
    heat: float
    page_class: PageClass
    #: effective class after MLFQ escalation (>= page_class)
    effective_class: PageClass


#: next-higher Table 1 class (MLFQ climb order), ``None`` at the top
_NEXT_CLASS: dict[PageClass, PageClass | None] = {
    PageClass.SHARED_WRITE: PageClass.PRIVATE_WRITE,
    PageClass.PRIVATE_WRITE: PageClass.SHARED_READ,
    PageClass.SHARED_READ: PageClass.PRIVATE_READ,
    PageClass.PRIVATE_READ: None,
}

#: pop() service order: highest class first
_CLASSES_DESC = tuple(sorted(PageClass, reverse=True))


class PromotionQueues:
    """The four Table 1 queues plus the MLFQ escalation rule."""

    def __init__(self, boost_factor: float = 2.0) -> None:
        if boost_factor <= 1.0:
            raise ValueError("boost_factor must exceed 1")
        self.boost_factor = boost_factor
        #: effective class -> heap of (-heat, pid, vpn)
        self._heaps: dict[PageClass, list[tuple[float, int, int]]] = {c: [] for c in PageClass}
        #: (pid, vpn) -> (effective class, heat) of the live entry; a
        #: heap tuple that doesn't match this (or finds no entry) is a
        #: lazily-invalidated leftover and is skipped on pop
        self._live: dict[tuple[int, int], tuple[PageClass, float]] = {}
        self._heat_sum: dict[PageClass, float] = {c: 0.0 for c in PageClass}
        self._heat_count: dict[PageClass, int] = {c: 0 for c in PageClass}
        self.escalations = 0

    def __len__(self) -> int:
        return len(self._live)

    def _escalate(self, base: PageClass, heat: float) -> PageClass:
        """MLFQ: climb while heat dwarfs the population above."""
        cls = base
        sums = self._heat_sum
        counts = self._heat_count
        bf = self.boost_factor
        while True:
            above = _NEXT_CLASS[cls]
            if above is None:
                break
            n = counts[above]
            if n:
                ref = sums[above] / n
                if ref > 0.0 and heat >= bf * ref:
                    cls = above
                    self.escalations += 1
                    continue
            break
        return cls

    def enqueue(self, pid: int, vpn: int, heat: float, page_class: PageClass) -> PageClass:
        """Add or refresh a candidate; returns its effective class."""
        if heat < 0.0:
            raise ValueError("heat must be non-negative")
        key = (pid, vpn)
        sums = self._heat_sum
        counts = self._heat_count
        old = self._live.get(key)
        if old is not None:
            old_cls = old[0]
            sums[old_cls] -= old[1]
            counts[old_cls] -= 1
        effective = self._escalate(page_class, heat)
        if effective is not page_class:
            tracer = get_tracer()
            if tracer.enabled:
                tracer.instant(
                    "queue_escalation", pid=pid, vpn=vpn, heat=heat,
                    from_class=page_class.name, to_class=effective.name,
                )
                tracer.metrics.counter("queue_escalations", page_class=page_class.name).inc()
        self._live[key] = (effective, heat)
        heapq.heappush(self._heaps[effective], (-heat, pid, vpn))
        sums[effective] += heat
        counts[effective] += 1
        return effective

    def pop(self, budget: int) -> list[QueuedPage]:
        """Serve up to ``budget`` pages, highest class first, hottest
        within class."""
        if budget < 0:
            raise ValueError("budget must be non-negative")
        out: list[QueuedPage] = []
        tracer = get_tracer()
        for cls in _CLASSES_DESC:
            heap = self._heaps[cls]
            while heap and len(out) < budget:
                neg_heat, pid, vpn = heapq.heappop(heap)
                key = (pid, vpn)
                live = self._live.get(key)
                if live is None:
                    continue  # already served or dropped
                heat = live[1]
                if live[0] is not cls or heat != -neg_heat:
                    continue  # superseded by a re-enqueue
                del self._live[key]
                self._heat_sum[cls] -= heat
                self._heat_count[cls] -= 1
                out.append(
                    QueuedPage(pid=pid, vpn=vpn, heat=heat, page_class=cls, effective_class=cls)
                )
                if tracer.enabled:
                    tracer.emit(
                        EventKind.QUEUE_PROMOTION,
                        "queue_promotion",
                        pid=pid,
                        args={"vpn": vpn, "heat": heat, "page_class": cls.name},
                    )
                    tracer.metrics.counter(
                        "queue_promotions", workload=pid, page_class=cls.name
                    ).inc()
            if len(out) >= budget:
                break
        return out

    def drop(self, pid: int, vpn: int) -> bool:
        """Remove a candidate (page demoted away, process exit)."""
        live = self._live.pop((pid, vpn), None)
        if live is None:
            return False
        cls, heat = live
        self._heat_sum[cls] -= heat
        self._heat_count[cls] -= 1
        return True

    def drop_pid(self, pid: int) -> int:
        """Remove every candidate of a process."""
        keys = [k for k in self._live if k[0] == pid]
        for k in keys:
            self.drop(*k)
        return len(keys)

    def depth(self, cls: PageClass) -> int:
        """Live candidates currently queued at ``cls``."""
        return self._heat_count[cls]
