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
    #: fast pfn -> retained slow pfn
    _shadows: dict[int, int] = field(default_factory=dict)
    stats: ShadowStats = field(default_factory=ShadowStats)

    def __len__(self) -> int:
        return len(self._shadows)

    def retain(self, fast_pfn: int, shadow_pfn: int) -> None:
        """Record that ``fast_pfn``'s old slow-tier frame lives on."""
        if not self.enabled:
            raise RuntimeError("shadowing disabled")
        if fast_pfn in self._shadows:
            raise ValueError(f"fast pfn {fast_pfn} already shadowed")
        self._shadows[fast_pfn] = shadow_pfn
        self.stats.retained += 1

    def shadow_of(self, fast_pfn: int) -> int | None:
        return self._shadows.get(fast_pfn)

    def shadowed_mask(self, fast_pfns: np.ndarray) -> np.ndarray:
        """Vectorized ``shadow_of(pfn) is not None`` over an array."""
        if not self._shadows:
            return np.zeros(fast_pfns.size, dtype=bool)
        keys = np.fromiter(self._shadows, dtype=np.int64, count=len(self._shadows))
        return np.isin(fast_pfns, keys)

    def on_write(self, fast_pfn: int) -> int | None:
        """A write diverged the copies; drop the shadow.

        Returns the dropped slow pfn, or None.  Its frame stays bound to
        the owner until teardown frees it.
        """
        shadow_pfn = self._shadows.pop(fast_pfn, None)
        if shadow_pfn is not None:
            self.stats.invalidated_by_write += 1
        return shadow_pfn

    def can_remap_demote(self, fast_pfn: int, *, dirty: bool) -> bool:
        """True when demotion can skip the copy: shadow exists and the
        fast copy is clean."""
        if not self.enabled:
            return False
        if dirty:
            # A dirty PTE means the shadow silently diverged; invalidate.
            self.on_write(fast_pfn)
            return False
        return fast_pfn in self._shadows

    def consume(self, fast_pfn: int) -> int:
        """Use the shadow as the demotion destination (remap-demote)."""
        shadow_pfn = self._shadows.pop(fast_pfn)
        self.stats.remap_demotions += 1
        return shadow_pfn

    def poison(self, fast_pfn: int) -> int | None:
        """Fault injection: the retained slow-tier copy is corrupt.

        The caller frees the returned frame at once — a poisoned copy
        must be discarded immediately, and the demotion that wanted it
        falls back to a full copy.  Returns the poisoned slow pfn or
        ``None``.
        """
        shadow_pfn = self._shadows.pop(fast_pfn, None)
        if shadow_pfn is not None:
            self.stats.poisoned += 1
        return shadow_pfn
