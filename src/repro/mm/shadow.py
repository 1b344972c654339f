"""Nomad-style page shadowing (paper §3.5, borrowed from Nomad).

When a page is promoted to the fast tier, its slow-tier copy is retained
as a *shadow* instead of being freed.  If the page later needs demotion
and its PTE is clean, demotion degenerates to a remap — no copy at all.
A dirty PTE at demotion time drops the shadow (the copies diverged) and
the demotion copies in full.

As modelled, nothing sets a PTE's dirty bit: ``record_plan`` counts
writes on the frame, faults install clean PTEs and migration clears the
bit.  So no write ever invalidates a shadow.  A retained shadow is
consumed by a remap-demotion, discarded by an injected poison fault, or
freed with its owner at teardown; nothing reclaims shadow frames when
the slow tier runs short.

Layout: one int64 table indexed by fast pfn, holding the retained slow
pfn or -1.  The migration executor works on it in array passes: it
reads a batch's twins at the batch's sources with one gather
(:meth:`ShadowTracker.twins`), and after the batch it forgets every
twin a demotion consumed, found diverged or found poisoned
(:meth:`ShadowTracker.drop`), then records the twins its promotions
kept (:meth:`ShadowTracker.retain`).  A promotion can land on a fast
frame an earlier demotion of the same batch freed, so the drop comes
first.  The executor counts the drops in :class:`ShadowStats`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ShadowStats:
    retained: int = 0
    invalidated_by_write: int = 0
    remap_demotions: int = 0
    poisoned: int = 0


@dataclass
class ShadowTracker:
    """Tracks fast-tier pages that still have a clean slow-tier twin."""

    enabled: bool = True
    stats: ShadowStats = field(default_factory=ShadowStats)
    #: fast pfn -> retained slow pfn, -1 for none; grows on demand
    _twin: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64), repr=False)
    _live: int = field(default=0, repr=False)

    def __len__(self) -> int:
        return self._live

    def twins(self, fast_pfns: np.ndarray) -> np.ndarray:
        """Each fast frame's retained slow pfn, -1 for none."""
        table = self._twin
        if fast_pfns.size == 0 or int(fast_pfns.max()) < table.size:
            return table[fast_pfns]
        out = np.full(fast_pfns.size, -1, dtype=np.int64)
        inside = fast_pfns < table.size
        out[inside] = table[fast_pfns[inside]]
        return out

    def shadowed_mask(self, fast_pfns: np.ndarray) -> np.ndarray:
        """Which of ``fast_pfns`` have a retained twin."""
        return self.twins(fast_pfns) >= 0

    def retain(self, fast_pfns: np.ndarray, shadow_pfns: np.ndarray) -> None:
        """Record that each ``fast_pfns[i]``'s old slow-tier frame
        ``shadow_pfns[i]`` lives on; none may already have a twin."""
        if not self.enabled:
            raise RuntimeError("shadowing disabled")
        if not fast_pfns.size:
            return
        top = int(fast_pfns.max())
        if top >= self._twin.size:
            grown = np.full(max(2 * self._twin.size, top + 1), -1, dtype=np.int64)
            grown[: self._twin.size] = self._twin
            self._twin = grown
        held = self._twin[fast_pfns] >= 0
        if held.any():
            raise ValueError(f"fast pfn {int(fast_pfns[held][0])} already shadowed")
        self._twin[fast_pfns] = shadow_pfns
        self._live += int(fast_pfns.size)
        self.stats.retained += int(fast_pfns.size)

    def drop(self, fast_pfns: np.ndarray) -> None:
        """Forget the twins of ``fast_pfns``, each of which has one."""
        self._twin[fast_pfns] = -1
        self._live -= int(fast_pfns.size)
