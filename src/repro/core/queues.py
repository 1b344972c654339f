"""Four-class priority promotion queues with MLFQ escalation (§3.5).

Pages awaiting promotion are queued by their Table 1 class; within a
class the hottest page is served first.  A Multi-Level Feedback Queue
rule prevents starvation: a page (re-)enqueued with heat at least
``boost_factor`` × the running mean heat of the live candidates in the
class above it climbs one level, and keeps climbing while that holds —
"allowing pages to promote to higher-priority queues as their heat
levels increase".

Layout: one table per workload.  The live candidates are a vpn-sorted
int64 array with parallel effective-class (int8) and heat (float64)
arrays, so storage is one row per live candidate, however long the run.
The queue also keeps each class's running heat sum and count.
:meth:`PromotionQueues.enqueue_many` locates every candidate's row with
one ``searchsorted``, walks the MLFQ rule sequentially (each decision
reads the class means the earlier candidates left), then writes
refreshed rows back with one scatter and adds new ones with one sorted
insert.  :meth:`PromotionQueues.pop` serves with one ``lexsort`` —
class descending, heat descending, vpn ascending — over the classes the
budget reaches, compacts the served rows away, and returns the served
pages as three arrays (vpns, heats, effective classes) in serve order.

The class sums are floats, so their order of updates is part of the
result: every candidate subtracts its old heat from its old class sum,
then adds its new heat to its new class sum, in candidate order; ``pop``
subtracts in serve order, one ``np.subtract.accumulate`` per class
(serving is class-descending, so each class is one run of the order).
"""

from __future__ import annotations

import numpy as np

from repro.core.classify import PageClass
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer

#: the highest class; MLFQ climbs one class value at a time up to it
_TOP = int(max(PageClass))
#: class value -> PageClass
_BY_VALUE = {int(c): c for c in PageClass}


class PromotionQueues:
    """One workload's four Table 1 queues plus the MLFQ escalation rule."""

    def __init__(self, pid: int, boost_factor: float = 2.0) -> None:
        if boost_factor <= 1.0:
            raise ValueError("boost_factor must exceed 1")
        self.pid = pid
        self.boost_factor = boost_factor
        #: live candidates, ascending by vpn, with their effective class
        #: and heat in parallel
        self._vpns = np.empty(0, dtype=np.int64)
        self._cls = np.empty(0, dtype=np.int8)
        self._heat = np.empty(0, dtype=np.float64)
        #: running heat sum / count of each class, indexed by class value
        self._heat_sum = [0.0] * (_TOP + 1)
        self._heat_count = [0] * (_TOP + 1)
        self.escalations = 0

    def __len__(self) -> int:
        return int(self._vpns.size)

    def enqueue(self, vpn: int, heat: float, page_class: PageClass) -> PageClass:
        """Add or refresh one candidate; returns its effective class."""
        eff = self.enqueue_many(
            np.array([vpn], dtype=np.int64),
            np.array([heat], dtype=np.float64),
            np.array([page_class], dtype=np.int8),
        )
        return _BY_VALUE[int(eff[0])]

    def enqueue_many(self, vpns: np.ndarray, heats: np.ndarray, classes: np.ndarray) -> np.ndarray:
        """Add or refresh candidates, in order; returns their effective
        classes.

        ``vpns`` must not repeat (``Profiler.heat_view`` order never
        does); ``classes`` holds each candidate's Table 1 class value.
        Equivalent to enqueuing the candidates one at a time, in order.
        """
        vpns = np.asarray(vpns, dtype=np.int64)
        heats = np.asarray(heats, dtype=np.float64)
        base = np.asarray(classes, dtype=np.int8)
        if (heats < 0.0).any():
            raise ValueError("heat must be non-negative")
        live = self._vpns
        pos = np.searchsorted(live, vpns)
        if live.size:
            found = live[np.minimum(pos, live.size - 1)] == vpns
        else:
            found = np.zeros(vpns.size, dtype=bool)
        at = pos[found]
        old_cls = np.zeros(vpns.size, dtype=np.int8)  # 0: no live row
        old_cls[found] = self._cls[at]
        old_heat = np.zeros(vpns.size, dtype=np.float64)
        old_heat[found] = self._heat[at]

        # The MLFQ walk.  Sequential: each candidate's climb reads the
        # class means every earlier candidate left.
        sums = self._heat_sum
        counts = self._heat_count
        bf = self.boost_factor
        top = _TOP
        climbs = 0
        eff_l = []
        append = eff_l.append
        for oc, oh, c, h in zip(old_cls.tolist(), old_heat.tolist(), base.tolist(), heats.tolist()):
            if oc:
                sums[oc] -= oh
                counts[oc] -= 1
            while c < top:
                n = counts[c + 1]
                if n:
                    ref = sums[c + 1] / n
                    if ref > 0.0 and h >= bf * ref:
                        c += 1
                        climbs += 1
                        continue
                break
            sums[c] += h
            counts[c] += 1
            append(c)
        self.escalations += climbs
        eff = np.fromiter(eff_l, dtype=np.int8, count=len(eff_l))

        tracer = get_tracer()
        if tracer.enabled and climbs:
            for i in np.flatnonzero(eff != base).tolist():
                tracer.instant(
                    "queue_escalation", pid=self.pid, vpn=int(vpns[i]), heat=float(heats[i]),
                    from_class=_BY_VALUE[int(base[i])].name,
                    to_class=_BY_VALUE[int(eff[i])].name,
                )

        self._cls[at] = eff[found]
        self._heat[at] = heats[found]
        if at.size < vpns.size:
            new = ~found
            order = np.argsort(vpns[new])
            ins = pos[new][order]
            self._vpns = np.insert(live, ins, vpns[new][order])
            self._cls = np.insert(self._cls, ins, eff[new][order])
            self._heat = np.insert(self._heat, ins, heats[new][order])
        return eff

    def pop(self, budget: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Serve up to ``budget`` pages, highest class first, hottest
        within class, lowest vpn among equals.

        Returns the served vpns (int64), heats (float64) and effective
        classes (int8 class values, after MLFQ escalation), in serve
        order.
        """
        if budget < 0:
            raise ValueError("budget must be non-negative")
        if budget == 0 or not self._vpns.size:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int8)
        sums = self._heat_sum
        counts = self._heat_count
        # Only the classes the budget reaches can be served.
        low = _TOP
        reach = counts[low]
        while reach < budget and low > PageClass.SHARED_WRITE:
            low -= 1
            reach += counts[low]
        rows = np.flatnonzero(self._cls >= low)
        order = rows[np.lexsort((self._vpns[rows], -self._heat[rows], -self._cls[rows]))[:budget]]
        vpns = self._vpns[order]
        heats = self._heat[order]
        classes = self._cls[order]
        starts = [0, *(np.flatnonzero(classes[1:] != classes[:-1]) + 1).tolist()]
        for lo, hi in zip(starts, starts[1:] + [classes.size]):
            c = int(classes[lo])
            run = np.empty(hi - lo + 1, dtype=np.float64)
            run[0] = sums[c]
            run[1:] = heats[lo:hi]
            sums[c] = float(np.subtract.accumulate(run)[-1])
            counts[c] -= hi - lo
        tracer = get_tracer()
        if tracer.enabled:
            for vpn, heat, c in zip(vpns.tolist(), heats.tolist(), classes.tolist()):
                tracer.emit(
                    EventKind.QUEUE_PROMOTION,
                    "queue_promotion",
                    pid=self.pid,
                    args={"vpn": vpn, "heat": heat, "page_class": _BY_VALUE[c].name},
                )
        keep = np.ones(self._vpns.size, dtype=bool)
        keep[order] = False
        self._vpns = self._vpns[keep]
        self._cls = self._cls[keep]
        self._heat = self._heat[keep]
        return vpns, heats, classes

    def depth(self, cls: PageClass) -> int:
        """Live candidates currently queued at ``cls``."""
        return self._heat_count[cls]
