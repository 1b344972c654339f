"""NUMA-hinting-fault profiler.

Models AutoNUMA/TPP-style hinting: a rotating window of pages is
"poisoned" (PTEs flipped to ``prot_none``); the next access to a
poisoned page traps, revealing an exact (page, time, thread) event.  The
signal is precise for the sampled window but costs the *application* a
fault (~2.5K cycles) per hit — the extra latency the paper attributes to
this mechanism.  Re-poisoning costs the daemon, which is not charged
anywhere (ROADMAP item 2).

A profiler call covers a whole epoch plan and reads the plan's per-
segment page sets (which ``AddressSpace.record_plan`` leaves on it), so
the fault pass looks at each segment's distinct pages, not at every
access.

The rotation walks each process's known page set window-by-window so
every page is eventually sampled (TPP poisons pages on the slow tier to
detect promotion candidates; we poison everywhere and let policies
filter by tier).
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import EpochPlan, Profiler

#: Application-side cost of taking one hinting fault.
HINT_FAULT_COST_CYCLES = 2_500.0


class HintFaultProfiler(Profiler):
    """Rotating prot_none poisoning with exact hit accounting."""

    mechanism = "hintfault"

    def __init__(self, window_fraction: float = 0.125, decay: float = 0.5) -> None:
        super().__init__(decay=decay)
        if not 0.0 < window_fraction <= 1.0:
            raise ValueError("window_fraction must be in (0, 1]")
        self.window_fraction = window_fraction
        #: pid -> sorted array of known vpns (refreshed via register_pages)
        self._pages: dict[int, np.ndarray] = {}
        #: pid -> (base, mask): the poisoned window as a dense bool array,
        #: ``mask[vpn - base]`` true while ``vpn`` is poisoned.  The mask
        #: spans the page range of the last rotation plus one never-set
        #: guard slot at each end, so a clipped gather answers membership
        #: for any vpn, in range or not, in one pass.
        self._window: dict[int, tuple[int, np.ndarray]] = {}
        #: pid -> rotation cursor into the page array
        self._cursor: dict[int, int] = {}

    def register_pages(self, pid: int, vpns: np.ndarray) -> None:
        """Declare the pages of ``pid`` the rotation should cover.

        A pid already registered keeps its current window until the
        next rotation."""
        self._pages[pid] = np.sort(np.asarray(vpns, dtype=np.int64))
        self._cursor.setdefault(pid, 0)
        if pid not in self._window:
            self._rotate(pid)

    def _rotate(self, pid: int) -> None:
        """Advance the poisoned window for ``pid``."""
        pages = self._pages[pid]
        if pages.size == 0:
            self._window[pid] = (0, np.zeros(0, dtype=bool))
            return
        window = max(int(pages.size * self.window_fraction), 1)
        start = self._cursor.get(pid, 0) % pages.size
        idx = (start + np.arange(window)) % pages.size
        base = int(pages[0]) - 1
        mask = np.zeros(int(pages[-1]) - base + 2, dtype=bool)
        mask[pages[idx] - base] = True
        self._window[pid] = (base, mask)
        self._cursor[pid] = (start + window) % pages.size

    def observe_plan(self, plan: EpochPlan) -> None:
        """Accesses hitting poisoned pages fault and get recorded exactly.

        Works from the plan's page sets (:meth:`EpochPlan.page_sets`):
        a poisoned page faults once, in the first segment that touches
        it, and is then unpoisoned until the next rotation; its write
        flag is set when that segment wrote the page at all.  Each hit
        page carries one heat unit, and hits append in (segment, vpn)
        order.
        """
        win = self._window.get(plan.pid)
        if plan.n == 0 or win is None:
            return
        base, mask = win
        if not mask.any():
            return
        pages = plan.page_sets()
        poisoned = mask.take(pages.vpns - base, mode="clip")
        touched = pages.vpns[poisoned]
        if touched.size == 0:
            return
        # keep each page's first occurrence: page sets list segments in
        # order, so a stable sort puts the earliest segment first
        order = np.argsort(touched, kind="stable")
        ordered = touched[order]
        first = np.empty(ordered.size, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        keep = np.zeros(touched.size, dtype=bool)
        keep[order[first]] = True
        hits = touched[keep]
        wrote = pages.written[poisoned][keep]
        mask[hits - base] = False
        # one add for the epoch's faults: every per-segment term is a
        # multiple of 2500 and the total stays an integer below 2**53,
        # so the running sum is exact either way
        self.stats.app_overhead_cycles += hits.size * HINT_FAULT_COST_CYCLES
        ones = np.ones(hits.size)
        self._heat.accumulate(plan.pid, hits, ones)
        self._write_heat.accumulate(plan.pid, hits[wrote], ones[wrote])

    def end_epoch(self) -> None:
        for pid in list(self._pages):
            self._rotate(pid)
        super().end_epoch()

    def forget(self, pid: int) -> None:
        super().forget(pid)
        self._pages.pop(pid, None)
        self._window.pop(pid, None)
        self._cursor.pop(pid, None)
