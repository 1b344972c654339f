"""NUMA-hinting-fault profiler.

Models AutoNUMA/TPP-style hinting: a rotating window of pages is
"poisoned" (PTEs flipped to ``prot_none``); the next access to a
poisoned page traps, revealing an exact (page, time, thread) event.  The
signal is precise for the sampled window but costs the *application* a
fault (~2.5K cycles) per hit — the extra latency the paper attributes to
this mechanism.

The rotation walks each process's known page set window-by-window so
every page is eventually sampled (TPP poisons pages on the slow tier to
detect promotion candidates; we poison everywhere and let policies
filter by tier).
"""

from __future__ import annotations

import numpy as np

from repro.profiling.base import AccessBatch, Profiler

#: Application-side cost of taking one hinting fault.
HINT_FAULT_COST_CYCLES = 2_500.0
#: Daemon-side cost of re-poisoning one PTE.
POISON_COST_CYCLES = 150.0


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
        self.stats.overhead_cycles += window * POISON_COST_CYCLES

    def observe(self, batch: AccessBatch) -> None:
        """Accesses hitting poisoned pages fault and get recorded exactly."""
        self.stats.accesses_seen += batch.n
        win = self._window.get(batch.pid)
        if batch.n == 0 or win is None:
            return
        base, mask = win
        if not mask.any():
            return
        hit = mask.take(batch.vpns - base, mode="clip")
        hits = batch.vpns[hit]
        if hits.size == 0:
            return
        # Each poisoned page faults once, then is unpoisoned until the
        # next rotation — so count unique pages, not raw hits.  Sorting
        # and keeping each first of a run is np.unique's result without
        # its hash path (which imports numpy.ma on first use).
        uniq = np.sort(hits)
        first = np.empty(uniq.size, dtype=bool)
        first[0] = True
        np.not_equal(uniq[1:], uniq[:-1], out=first[1:])
        uniq = uniq[first]
        mask[uniq - base] = False
        self.stats.samples_taken += int(uniq.size)
        self.stats.app_overhead_cycles += uniq.size * HINT_FAULT_COST_CYCLES
        # The first-touch indicator carries one heat unit; exact
        # write/read split is visible for the faulting access.
        writes_first = np.zeros(uniq.size, dtype=np.float64)
        w_hits = hits[batch.is_write[hit]]
        if w_hits.size:
            writes_first[np.searchsorted(uniq, w_hits)] = 1.0
        self._accumulate(batch.pid, uniq, np.ones(uniq.size), write_weights=writes_first)

    def end_epoch(self) -> None:
        for pid in list(self._pages):
            self._rotate(pid)
        super().end_epoch()

    def forget(self, pid: int) -> None:
        super().forget(pid)
        self._pages.pop(pid, None)
        self._window.pop(pid, None)
        self._cursor.pop(pid, None)
