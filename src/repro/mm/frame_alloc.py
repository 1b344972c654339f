"""Per-tier physical frame allocation with watermarks.

Global PFN space is partitioned contiguously: the fast tier owns
``[0, fast_frames)``, the slow tier ``[fast_frames, fast+slow)``, so a
PFN alone identifies its tier — mirroring how zone membership works in
the kernel and letting PTEs stay a single integer.

Watermarks drive proactive demotion exactly as in TPP/Linux: when a
tier's free frames drop below ``low_watermark`` the reclaim path (a
tiering policy) is expected to demote until ``high_watermark`` is
restored.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.mm.page import PhysPage
from repro.mm.page_store import (
    NONE_SENTINEL,
    STATE_FREE,
    STATE_MAPPED,
    STATE_MIGRATING,
    STATE_SHADOW,
    PageStatsStore,
)


class OutOfFramesError(RuntimeError):
    """A tier has no free frames and the caller did not allow fallback."""


class FreeFrameList:
    """One tier's free PFNs without materializing a million-int deque.

    Represents exactly the dense ``deque(range(base, base + total))``
    the allocator used to build: a *virgin* range of never-allocated
    frames ``[virgin_next, virgin_end)`` plus recycled frames in FIFO
    order.  Because frames are only ever added after the virgin
    range existed at construction, the dense deque would always hold
    ``[virgin..., recycled...]`` — so popping virgin-ascending first,
    then recycled FIFO, reproduces its pop order bit-for-bit while
    keeping construction O(1) and memory proportional to *recycled*
    frames only.
    """

    __slots__ = ("_virgin_next", "_virgin_end", "_recycled")

    def __init__(self, base: int, total: int) -> None:
        self._virgin_next = base
        self._virgin_end = base + total
        self._recycled: deque[int] = deque()

    def __len__(self) -> int:
        return (self._virgin_end - self._virgin_next) + len(self._recycled)

    def __bool__(self) -> bool:
        return self._virgin_next < self._virgin_end or bool(self._recycled)

    def __iter__(self):
        yield from range(self._virgin_next, self._virgin_end)
        yield from self._recycled

    def __contains__(self, pfn: int) -> bool:
        return self._virgin_next <= pfn < self._virgin_end or pfn in self._recycled

    def __getitem__(self, idx: int) -> int:
        """Index into the virtual dense sequence [virgin..., recycled...]."""
        n_virgin = self._virgin_end - self._virgin_next
        n = n_virgin + len(self._recycled)
        if idx < 0:
            idx += n
        if not 0 <= idx < n:
            raise IndexError("free list index out of range")
        if idx < n_virgin:
            return self._virgin_next + idx
        return self._recycled[idx - n_virgin]

    def popleft(self) -> int:
        if self._virgin_next < self._virgin_end:
            pfn = self._virgin_next
            self._virgin_next += 1
            return pfn
        return self._recycled.popleft()

    def pop_many(self, n: int) -> np.ndarray:
        """``n`` × :meth:`popleft` as one int64 array (virgin, then recycled)."""
        if n > len(self):
            raise IndexError("pop from an empty free list")
        k = min(n, self._virgin_end - self._virgin_next)
        out = np.empty(n, dtype=np.int64)
        out[:k] = np.arange(self._virgin_next, self._virgin_next + k)
        self._virgin_next += k
        recycled = self._recycled
        out[k:] = [recycled.popleft() for _ in range(n - k)]
        return out

    def pop(self) -> int:
        """Pop from the tail (the dense deque's highest-priority-last end)."""
        if self._recycled:
            return self._recycled.pop()
        if self._virgin_next < self._virgin_end:
            self._virgin_end -= 1
            return self._virgin_end
        raise IndexError("pop from an empty free list")

    def append(self, pfn: int) -> None:
        self._recycled.append(pfn)

    def extend(self, pfns: np.ndarray) -> None:
        """:meth:`append` each of ``pfns``, in order."""
        self._recycled.extend(pfns.tolist())

    @property
    def virgin_range(self) -> tuple[int, int]:
        """The never-allocated span (for O(1) consistency checks)."""
        return (self._virgin_next, self._virgin_end)

    def recycled_array(self) -> np.ndarray:
        """Recycled frames as an int64 array (consistency checks)."""
        return np.fromiter(self._recycled, dtype=np.int64, count=len(self._recycled))


@dataclass
class TierFrames:
    """Allocation bookkeeping for one tier."""

    tier_id: int
    base_pfn: int
    total: int
    low_watermark_frac: float = 0.02
    high_watermark_frac: float = 0.05
    #: frames administratively removed from service (capacity events)
    offline: int = 0

    def __post_init__(self) -> None:
        if self.total <= 0:
            raise ValueError("tier needs at least one frame")
        if not 0 <= self.low_watermark_frac <= self.high_watermark_frac <= 1:
            raise ValueError("need 0 <= low <= high <= 1 watermark fractions")
        self.free_list = FreeFrameList(self.base_pfn, self.total)

    @property
    def free(self) -> int:
        return len(self.free_list)

    @property
    def online(self) -> int:
        """Frames currently in service (installed minus offlined)."""
        return self.total - self.offline

    @property
    def used(self) -> int:
        return self.online - self.free

    @property
    def low_watermark(self) -> int:
        return int(self.online * self.low_watermark_frac)

    @property
    def high_watermark(self) -> int:
        return int(self.online * self.high_watermark_frac)

    def below_low_watermark(self) -> bool:
        return self.free < self.low_watermark

    def frames_to_reclaim(self) -> int:
        """How many frames demotion must free to restore the high mark."""
        deficit = self.high_watermark - self.free
        return max(deficit, 0)


class FrameAllocator:
    """Allocator over both tiers plus the frame metadata table."""

    def __init__(
        self,
        fast_frames: int,
        slow_frames: int,
        low_watermark_frac: float = 0.02,
        high_watermark_frac: float = 0.05,
        *,
        chunk_frames: int | None = None,
    ) -> None:
        self.tiers = [
            TierFrames(0, base_pfn=0, total=fast_frames,
                       low_watermark_frac=low_watermark_frac,
                       high_watermark_frac=high_watermark_frac),
            TierFrames(1, base_pfn=fast_frames, total=slow_frames,
                       low_watermark_frac=low_watermark_frac,
                       high_watermark_frac=high_watermark_frac),
        ]
        self._fast_frames = fast_frames
        #: authoritative per-frame state (PhysPage objects are views)
        store_kwargs = {} if chunk_frames is None else {"chunk_frames": chunk_frames}
        self.store = PageStatsStore(fast_frames + slow_frames, fast_frames, **store_kwargs)
        # Every frame starts on a free list: flag the materialized
        # prefix and make growth segments inherit the same default.
        self.store.free_fill = True
        self.store.in_free_list[:] = True
        #: frames taken out of service by capacity events (still FREE,
        #: but neither allocatable nor on any free list)
        self._offline: set[int] = set()

    def tier_of_pfn(self, pfn: int) -> int:
        """Which tier a PFN belongs to (contiguous partitioning)."""
        if pfn < 0 or pfn >= self.tiers[0].total + self.tiers[1].total:
            raise ValueError(f"pfn {pfn} outside physical memory")
        return 0 if pfn < self._fast_frames else 1

    def ever_allocated(self, pfn: int) -> bool:
        """Has this frame been handed out by the allocator at least once?

        O(1) range arithmetic against the tier's virgin span — no
        per-frame bookkeeping.  Administratively-offlined frames report
        ``False``: they must come back through ``online_frames`` before
        they can be treated as allocatable again.
        """
        tier = self.tiers[self.tier_of_pfn(pfn)]
        v_lo, v_hi = tier.free_list.virgin_range
        if v_lo <= pfn < v_hi:
            return False
        return pfn not in self._offline

    def page(self, pfn: int) -> PhysPage:
        """Frame metadata view (frames are store rows; views are cheap
        and stateless, so one is built per call rather than cached)."""
        if not self.ever_allocated(pfn):
            raise KeyError(pfn)
        return PhysPage(pfn=pfn, store=self.store)

    def allocate_pfn(self, tier_id: int, *, fallback: bool = False) -> int:
        """:meth:`allocate` without materializing the PhysPage view.

        Same pop order, same fallback rule, same store writes — returns
        the bare PFN for callers that work through the store directly.
        """
        tier = self.tiers[tier_id]
        if not tier.free_list:
            if fallback and tier_id == 0 and self.tiers[1].free_list:
                tier = self.tiers[1]
            else:
                raise OutOfFramesError(f"tier {tier_id} has no free frames")
        pfn = tier.free_list.popleft()
        store = self.store
        if pfn >= store.capacity:
            store.ensure(pfn + 1)
        store.in_free_list[pfn] = False
        store.state[pfn] = STATE_FREE  # caller attaches
        return pfn

    def allocate(self, tier_id: int, *, fallback: bool = False) -> PhysPage:
        """Take a free frame from ``tier_id``.

        With ``fallback=True`` an empty fast tier falls through to the
        slow tier (Linux's allocation fallback order), mirroring how new
        allocations land in slow memory once DRAM fills.
        """
        return PhysPage(pfn=self.allocate_pfn(tier_id, fallback=fallback), store=self.store)

    def allocate_pfns(self, n: int, tier_id: int, *, fallback: bool = False) -> np.ndarray:
        """``n`` × :meth:`allocate_pfn`, all or nothing.

        Returns the PFNs in the order the scalar calls would pop them —
        ``tier_id`` first, then (with ``fallback`` from the fast tier)
        the slow tier — after the same store writes and the same store
        growth steps.  Unlike the scalar loop it checks first that the
        tiers can supply all ``n`` frames: on :class:`OutOfFramesError`
        nothing has been taken.
        """
        tier = self.tiers[tier_id]
        spill = self.tiers[1] if fallback and tier_id == 0 else None
        n_first = min(n, tier.free)
        n_spill = n - n_first
        if n_spill and (spill is None or spill.free < n_spill):
            raise OutOfFramesError(
                f"tier {tier_id} cannot supply {n} frames "
                f"({tier.free} free{'' if spill is None else f' + {spill.free} on fallback'})"
            )
        pfns = tier.free_list.pop_many(n_first)
        if n_spill:
            pfns = np.concatenate([pfns, spill.free_list.pop_many(n_spill)])
        store = self.store
        # Replay the scalar path's growth: ensure(pfn + 1) at each pfn, in
        # pop order, that lies beyond the materialized prefix.
        beyond = pfns >= store.capacity
        while beyond.any():
            store.ensure(int(pfns[int(np.argmax(beyond))]) + 1)
            beyond = pfns >= store.capacity
        store.in_free_list[pfns] = False
        store.state[pfns] = STATE_FREE  # caller attaches
        return pfns

    def free(self, pfn: int) -> None:
        """Return a frame to its tier's free list."""
        if not self.ever_allocated(pfn):
            raise ValueError(f"pfn {pfn} was never allocated")
        store = self.store
        if store.in_free_list[pfn]:
            raise ValueError(f"double free of pfn {pfn}")
        store.detach_row(pfn)
        self.tiers[0 if pfn < self._fast_frames else 1].free_list.append(pfn)
        store.in_free_list[pfn] = True

    def free_pid(self, pid: int) -> dict[str, int]:
        """Bulk-release every frame owned by ``pid`` (process teardown).

        Covers MAPPED and MIGRATING frames (the page-table walk) *and*
        SHADOW frames — retained slow-tier twins, including stale ones
        whose fast copy diverged — so a departed workload leaves zero
        frames behind.  The result is that of one :meth:`free` per frame
        in ascending PFN order, so free-list contents stay deterministic,
        made in array passes: every frame is validated before any is
        freed, the rows detach in one scatter, and each tier's free list
        takes its frames in ascending order.

        Returns per-state/per-tier release counts.  Raises, before
        freeing anything, if a frame is already on a free list (double
        free) or was never handed out (virgin or offline), naming the
        lowest such frame; and raises if any frame stays bound to
        ``pid`` (leak).
        """
        st = self.store
        owned = st.owned_frames(pid)
        state = st.state[owned]
        fast = owned < self._fast_frames
        n_fast = int(np.count_nonzero(fast))
        counts = {
            "mapped": int(np.count_nonzero(state == STATE_MAPPED)),
            "migrating": int(np.count_nonzero(state == STATE_MIGRATING)),
            "shadow": int(np.count_nonzero(state == STATE_SHADOW)),
            "fast": n_fast,
            "slow": int(owned.size) - n_fast,
        }
        listed = st.in_free_list[owned]
        never = np.zeros(owned.size, dtype=bool)
        for tier in self.tiers:
            v_lo, v_hi = tier.free_list.virgin_range
            never |= (owned >= v_lo) & (owned < v_hi)
        if self._offline:
            offline = np.array(sorted(self._offline), dtype=np.int64)
            at = np.minimum(np.searchsorted(offline, owned), offline.size - 1)
            never |= offline[at] == owned
        bad = listed | never
        if bad.any():
            first = int(np.argmax(bad))
            pfn = int(owned[first])
            if listed[first]:
                raise RuntimeError(f"teardown double free: pfn {pfn} of pid {pid}")
            raise ValueError(f"pfn {pfn} was never allocated")
        st.pid[owned] = NONE_SENTINEL
        st.vpn[owned] = NONE_SENTINEL
        st.state[owned] = STATE_FREE
        st.epoch_reads[owned] = 0
        st.epoch_writes[owned] = 0
        st.touched[owned] = False
        self.tiers[0].free_list.extend(owned[fast])
        self.tiers[1].free_list.extend(owned[~fast])
        st.in_free_list[owned] = True
        leaked = st.owned_frames(pid)
        if leaked.size:
            raise RuntimeError(
                f"teardown leaked {leaked.size} frames of pid {pid}: {leaked[:8].tolist()}"
            )
        return counts

    def offline_frames(self, tier_id: int, n: int) -> list[int]:
        """Take up to ``n`` free frames of a tier out of service.

        Frames are popped from the *tail* of the free list so the
        allocation order of the remaining frames is undisturbed.  Only
        free frames can be offlined; if fewer than ``n`` are free the
        call offlines what it can (the caller reads the returned list
        for the actual count).
        """
        tier = self.tiers[tier_id]
        take = min(n, tier.free)
        taken = [tier.free_list.pop() for _ in range(take)]
        for pfn in taken:
            if pfn >= self.store.capacity:
                self.store.ensure(pfn + 1)
            self.store.in_free_list[pfn] = False
            self._offline.add(pfn)
        tier.offline += take
        return sorted(taken)

    def online_frames(self, tier_id: int, n: int | None = None) -> int:
        """Return offlined frames of a tier to service (ascending PFN)."""
        tier = self.tiers[tier_id]
        avail = sorted(p for p in self._offline if self.tier_of_pfn(p) == tier_id)
        if n is not None:
            avail = avail[:n]
        for pfn in avail:
            self._offline.discard(pfn)
            tier.free_list.append(pfn)
            self.store.in_free_list[pfn] = True
        tier.offline -= len(avail)
        return len(avail)

    def check_consistency(self) -> None:
        """Cross-check free lists against the store's free-list bitmap.

        Invariants: each tier's free list holds exactly the in-tier PFNs
        whose ``in_free_list`` bit is set; every FREE-state frame is
        either on a free list or offline; no live frame is on a free
        list.  Raises ``RuntimeError`` on the first violation.

        Memory-budgeted for million-frame stores: the virgin span of a
        free list is validated by range arithmetic against the bitmap
        (an ``.all()`` over the materialized prefix — frames beyond the
        store's capacity are virgin by construction), recycled frames
        through one bounded int64 array, and no Python sets of PFNs are
        ever built.
        """
        st = self.store
        cap = st.capacity
        for tier in self.tiers:
            lo, hi = tier.base_pfn, tier.base_pfn + tier.total
            v_lo, v_hi = tier.free_list.virgin_range
            recycled = tier.free_list.recycled_array()
            # Frames below the virgin span were allocated at least once;
            # a frame is flagged free there iff it is recycled/offline.
            flags = st.in_free_list[lo:min(hi, cap)]
            # virgin frames must all be flagged (materialized ones
            # explicitly; beyond-capacity ones by the free_fill default)
            v_mat_hi = min(v_hi, cap)
            if v_lo < v_mat_hi and not bool(st.in_free_list[v_lo:v_mat_hi].all()):
                raise RuntimeError(
                    f"tier {tier.tier_id}: virgin frame missing its free-list bit"
                )
            if v_hi > cap and not st.free_fill:
                raise RuntimeError(
                    f"tier {tier.tier_id}: unmaterialized virgin frames not "
                    "covered by the free_fill default"
                )
            if recycled.size:
                if int(recycled.min()) < lo or int(recycled.max()) >= hi:
                    raise RuntimeError(f"tier {tier.tier_id} free list holds out-of-tier pfns")
                if int(recycled.max()) >= cap:
                    raise RuntimeError(f"tier {tier.tier_id} recycled an unmaterialized pfn")
                # Sort and compare neighbours: np.unique's hash path
                # would import numpy.ma on first use.
                srt = np.sort(recycled)
                if bool((srt[1:] == srt[:-1]).any()):
                    raise RuntimeError(f"tier {tier.tier_id} free list has duplicates")
                if ((srt >= v_lo) & (srt < v_hi)).any():
                    raise RuntimeError(
                        f"tier {tier.tier_id} free list has duplicates "
                        "(virgin pfn also recycled)"
                    )
                if not bool(st.in_free_list[srt].all()):
                    raise RuntimeError(
                        f"tier {tier.tier_id} free list and bitmap disagree: "
                        "recycled frame without its bit"
                    )
            # Total flagged frames in the tier span must equal the free
            # list's length (bits outside the list would slip past the
            # per-group checks above).
            n_virgin_flagged = max(v_mat_hi - v_lo, 0) + max(v_hi - max(v_lo, cap), 0)
            n_span_flagged = int(flags.sum()) + (max(hi - max(lo, cap), 0) if st.free_fill else 0)
            if n_span_flagged != recycled.size + n_virgin_flagged:
                raise RuntimeError(
                    f"tier {tier.tier_id} free list and bitmap disagree: "
                    f"{len(tier.free_list)} listed vs {n_span_flagged} flagged"
                )
            if tier.offline != sum(1 for p in self._offline if self.tier_of_pfn(p) == tier.tier_id):
                raise RuntimeError(f"tier {tier.tier_id} offline count out of sync")
        free_state = st.state[:cap] == STATE_FREE
        flagged = st.in_free_list[:cap]
        offline = np.zeros(cap, dtype=bool)
        if self._offline:
            offline[sorted(self._offline)] = True
        if bool((flagged & ~free_state).any()):
            raise RuntimeError("live frame present on a free list")
        unaccounted = free_state & ~flagged & ~offline
        if bool(unaccounted.any()):
            raise RuntimeError(
                f"{int(unaccounted.sum())} FREE frames neither listed nor offline"
            )

    def free_frames(self, tier_id: int) -> int:
        return self.tiers[tier_id].free
