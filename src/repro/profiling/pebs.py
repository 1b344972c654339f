"""PEBS-style hardware-event sampling profiler.

Models Processor Event-Based Sampling of memory-access events (as used
by Memtis, HeMem, FlexMem): every ``period``-th access of a thread
(with random phase) produces a sample carrying the page address.
Cheap and frequency-proportional, but at terabyte scale the fixed
sampling budget makes infrequently-accessed hot pages invisible — the
false-negative problem Telescope documents (paper §2.1).

Sampling costs the daemon, not the application, and that cost is not
charged anywhere (ROADMAP item 2).
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import EpochPlan, Profiler


class PebsProfiler(Profiler):
    """Sampling profiler with configurable period."""

    mechanism = "pebs"

    def __init__(self, period: int = 64, decay: float = 0.5, rng: np.random.Generator | None = None) -> None:
        super().__init__(decay=decay)
        if period < 1:
            raise ValueError("sampling period must be >= 1")
        self.period = period
        self.rng = rng if rng is not None else np.random.default_rng(0)

    def observe_plan(self, plan: EpochPlan) -> None:
        """Keep ~1/period of each thread's stream, heat-weighted by the
        period so expected heat equals true access counts.

        Random-phase systematic sampling — the standard PEBS counter
        reload behaviour: deterministic stride, random initial offset.
        Each non-empty segment draws its phase, in segment order, even
        when the phase lies past the segment's end; every sample is
        then gathered in one pass and grouped by (segment, page).  A
        page gets one heat add per segment that sampled it, segment by
        segment, of ``count * period`` (an exact integer, the sum the
        per-segment weights made), so each slot's float association is
        the per-segment one and new pages append in (first segment,
        vpn) order.
        """
        period = self.period
        lens = np.diff(plan.offsets)
        seg = np.flatnonzero(lens)
        if seg.size == 0:
            return
        phase = np.array([self.rng.integers(period) for _ in range(seg.size)], dtype=np.int64)
        count = (lens[seg] - phase + (period - 1)) // period
        np.maximum(count, 0, out=count)
        total = int(count.sum())
        if total == 0:
            return
        # segment seg[k] samples from offsets[seg[k]] + phase[k] on, one
        # access in every period; numbering the samples j over the whole
        # plan, its j-th sits at that start + period * (j - before[k])
        before = np.cumsum(count) - count
        idx = np.repeat(plan.offsets[seg] + phase - period * before, count)
        idx += period * np.arange(total)
        vpns = plan.vpns[idx]
        lo = int(vpns.min())
        span = int(vpns.max()) - lo + 1
        # (segment, page, write) keys: sorted, each (segment, page)
        # group is one run, its writes at the run's end
        key = np.repeat(np.arange(seg.size, dtype=np.int64) * span, count)
        key += vpns
        key -= lo
        key <<= 1
        key |= plan.is_write[idx]
        key.sort()
        group = key >> 1
        start = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
        group_seg, group_vpn = np.divmod(group[start], span)
        group_vpn += lo
        heat = np.diff(start, append=key.size) * float(period)
        write_heat = np.add.reduceat(key & 1, start) * float(period)
        self._heat.accumulate(plan.pid, group_vpn, heat, _segment_cuts(group_seg))
        written = np.flatnonzero(write_heat)
        if written.size:
            self._write_heat.accumulate(
                plan.pid, group_vpn[written], write_heat[written], _segment_cuts(group_seg[written])
            )


def _segment_cuts(group_seg: np.ndarray) -> np.ndarray:
    """Where each segment's run of groups starts, plus the end."""
    return np.flatnonzero(np.concatenate(([True], group_seg[1:] != group_seg[:-1], [True])))
