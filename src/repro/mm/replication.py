"""Per-thread page-table replication (paper §3.4).

Vulcan replicates the *upper* levels (PGD/PUD/PMD) per thread while
sharing the *last-level* (PT) pages across all threads of a process —
last-level tables are the bulk of page-table memory, so replicas stay
small.  Ownership is tracked in the PTE itself (bits 52-58): a page
first touched by thread *t* is owned by *t*; when a second thread
touches it the entry is flipped to the shared sentinel ``0x7F``.

The simulator stores exactly what shootdown scope reads.  A process's
PTEs live in one vpn-indexed :class:`FlatPageTable` — the shared
leaves, so a PTE update is one store every thread sees, the
single-store semantics of the real design.  Replication is the set of
threads that link each 512-vpn leaf; a thread's upper-level tables
follow from that set and are not stored.

The payoff computed here is the *shootdown scope*: for a private page
only the owner thread's core needs an IPI; for a shared page only the
threads linked to the covering leaf table do.  The process-wide
fallback (no replication) must IPI every core running any thread.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.mm import pte as pte_mod
from repro.mm.pte import PTE_MAX_TID, PTE_SHARED_TID

#: Radix bits per page-table level: one leaf (PT) table maps 512 vpns.
LEVEL_BITS = 9
#: Four 9-bit levels index a 36-bit vpn (48-bit virtual addresses).
VPN_LIMIT = 1 << (4 * LEVEL_BITS)


class FlatPageTable:
    """A process's PTEs in vpn-indexed arrays.

    ``value`` holds each raw 64-bit PTE (0 = absent); ``pfn``, ``owner``
    and ``dirty`` hold its decoded fields (-1, -1 and False when absent)
    so the per-epoch hot path can translate and classify whole batches
    with numpy gathers.  The arrays span the mapped vpns, growing on
    demand from ``base``; ``mapped`` counts the present entries.
    """

    _GROW_PAD = 4096  # grow in 16 MiB-of-address-space steps

    def __init__(self) -> None:
        self.base = 0
        self.pfn = np.empty(0, dtype=np.int64)
        self.owner = np.empty(0, dtype=np.int16)
        self.dirty = np.zeros(0, dtype=bool)
        self.value = np.zeros(0, dtype=np.int64)
        self.mapped = 0
        self._present_cache: np.ndarray | None = None

    def _ensure(self, lo: int, hi: int) -> None:
        """Grow the arrays to cover vpns ``[lo, hi]``.

        Growth at least doubles the arrays and puts the new slack on the
        side that ran out: below the data when ``lo`` fell under the
        base, above it otherwise.  Writes creeping in either direction
        therefore reallocate O(log span) times.  A vpn outside
        ``[0, VPN_LIMIT)`` raises ``ValueError``.
        """
        if lo < 0 or hi >= VPN_LIMIT:
            raise ValueError(f"vpn {lo if lo < 0 else hi} outside the 36-bit index space")
        if self.pfn.size and self.base <= lo and hi < self.base + self.pfn.size:
            return
        if self.pfn.size == 0:
            new_base = max(lo - 64, 0)
            new_size = hi - new_base + self._GROW_PAD
            old = None
        else:
            span_lo = min(self.base, lo)
            span_hi = max(self.base + self.pfn.size, hi + 1)
            new_size = max(span_hi - span_lo + self._GROW_PAD, 2 * self.pfn.size)
            new_base = max(span_hi - new_size, 0) if lo < self.base else span_lo
            old = (self.base, self.pfn, self.owner, self.dirty, self.value)
        pfn = np.full(new_size, -1, dtype=np.int64)
        owner = np.full(new_size, -1, dtype=np.int16)
        dirty = np.zeros(new_size, dtype=bool)
        value = np.zeros(new_size, dtype=np.int64)
        if old is not None:
            ob, opfn, oowner, odirty, ovalue = old
            off = ob - new_base
            pfn[off:off + opfn.size] = opfn
            owner[off:off + opfn.size] = oowner
            dirty[off:off + opfn.size] = odirty
            value[off:off + opfn.size] = ovalue
        self.base, self.pfn, self.owner, self.dirty, self.value = new_base, pfn, owner, dirty, value
        self._present_cache = None

    def set(self, vpn: int, pfn: int, owner: int, dirty: bool, raw: int = 0) -> None:
        self._ensure(vpn, vpn)
        i = vpn - self.base
        if self.pfn[i] < 0:
            self.mapped += 1
            self._present_cache = None
        self.pfn[i] = pfn
        self.owner[i] = owner
        self.dirty[i] = dirty
        self.value[i] = raw

    def set_many(self, vpns: np.ndarray, pfns: np.ndarray, owners: np.ndarray, raws: np.ndarray) -> None:
        """:meth:`set` a clean entry for each of the ascending, unmapped
        ``vpns``; raises ``ValueError`` before any write if one is mapped."""
        self._ensure(int(vpns[0]), int(vpns[-1]))
        i = vpns - self.base
        present = self.pfn[i] >= 0
        if present.any():
            raise ValueError(f"vpn {int(vpns[present][0])} already mapped")
        self.mapped += int(vpns.size)
        self.pfn[i] = pfns
        self.owner[i] = owners
        self.dirty[i] = False
        self.value[i] = raws
        self._present_cache = None

    def set_owner(self, vpn: int, owner: int) -> None:
        i = vpn - self.base
        self.owner[i] = owner
        self.value[i] = pte_mod.pte_with_tid(int(self.value[i]), owner)

    def clear(self, vpn: int) -> None:
        i = vpn - self.base
        if 0 <= i < self.pfn.size and self.pfn[i] >= 0:
            self.mapped -= 1
            self.pfn[i] = -1
            self.owner[i] = -1
            self.dirty[i] = False
            self.value[i] = 0
            self._present_cache = None

    def present_vpns(self) -> np.ndarray:
        """Mapped VPNs in ascending order (cached between mutations)."""
        if self._present_cache is None:
            self._present_cache = np.flatnonzero(self.pfn >= 0) + self.base
        return self._present_cache

    def indices(self, vpns: np.ndarray) -> np.ndarray:
        """Array indices for ``vpns`` (callers guarantee coverage)."""
        return vpns - self.base


@dataclass
class ReplicationStats:
    """Counters describing replication behaviour."""

    private_faults: int = 0
    shared_promotions: int = 0
    leaf_links: int = 0


class ReplicatedPageTables:
    """A process's page table plus the threads linked to each leaf.

    Threads are identified by a small per-process ``tid`` (0..0x7E);
    ``0x7F`` is reserved for the shared sentinel, matching the 7-bit PTE
    field of the paper's kernel patch.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._tids: set[int] = set()
        #: leaf base (vpn >> 9) -> tids whose upper levels link that leaf
        self._leaf_tids: dict[int, set[int]] = {}
        #: the PTEs, read directly by the hot-path gathers
        self.flat = FlatPageTable()
        self.stats = ReplicationStats()

    # -- thread lifecycle ---------------------------------------------------

    def register_thread(self, tid: int) -> None:
        """Register a new thread (its replica starts with no leaf linked)."""
        if not 0 <= tid <= PTE_MAX_TID:
            raise ValueError(f"tid {tid} outside the 7-bit ownership field (0x7F reserved)")
        if tid in self._tids:
            raise ValueError(f"tid {tid} already registered")
        self._tids.add(tid)

    @property
    def tids(self) -> set[int]:
        return set(self._tids)

    # -- fault handling -------------------------------------------------------

    def _link_leaf(self, vpn: int, tid: int) -> None:
        """Link the leaf covering ``vpn`` into ``tid``'s upper levels."""
        linked = self._leaf_tids.setdefault(vpn >> LEVEL_BITS, set())
        if tid not in linked:
            linked.add(tid)
            self.stats.leaf_links += 1

    def handle_fault(self, vpn: int, tid: int, pfn: int, *, writable: bool = True) -> int:
        """Install a new mapping on a demand fault by ``tid``.

        Returns the PTE value installed.  With replication enabled the
        entry is stamped with ``tid`` as owner and the covering leaf is
        linked into ``tid``'s replica.  A mapped vpn, or one outside
        ``[0, 2**36)``, raises ``ValueError``.
        """
        if self.enabled and tid not in self._tids:
            raise KeyError(f"tid {tid} not registered")
        owner = tid if self.enabled else PTE_SHARED_TID
        value = pte_mod.pte_make(pfn=pfn, tid=owner, writable=writable, accessed=True)
        if self.lookup(vpn) is not None:
            raise ValueError(f"vpn {vpn} already mapped")
        self.flat.set(vpn, pfn, owner, dirty=False, raw=value)
        if self.enabled:
            self._link_leaf(vpn, tid)
            self.stats.private_faults += 1
        return value

    def handle_faults(self, vpns: np.ndarray, tids: np.ndarray, pfns: np.ndarray) -> None:
        """:meth:`handle_fault` for each ascending, unmapped ``vpns[i]``
        by registered thread ``tids[i]`` onto ``pfns[i]``.

        Leaves the table, leaf links and stats exactly as the scalar
        calls in vpn order would, in a few array passes: one table
        write, then one :meth:`_link_leaf` per (leaf, tid) pair in
        first-touch order.  A mapped or out-of-range vpn raises
        ``ValueError`` before anything is written.
        """
        owners = tids if self.enabled else np.full(tids.size, PTE_SHARED_TID, dtype=np.int64)
        values = pte_mod.pte_make_many(pfns, owners, writable=True, accessed=True)
        self.flat.set_many(vpns, pfns, owners, values)
        if self.enabled:
            pairs = (vpns >> LEVEL_BITS) * (PTE_SHARED_TID + 1) + tids
            first = np.sort(np.unique(pairs, return_index=True)[1])
            for vpn, tid in zip(vpns[first].tolist(), tids[first].tolist()):
                self._link_leaf(vpn, tid)
            self.stats.private_faults += int(vpns.size)

    def note_access(self, vpn: int, tid: int) -> bool:
        """Record that ``tid`` touched ``vpn``; promote to shared if a
        non-owner touches a private page.

        Returns ``True`` when the ownership transitioned private→shared
        (the caller should charge a minor-fault cost: the second thread
        faults on its replica, finds the process entry, links the leaf).
        """
        if not self.enabled:
            return False
        value = self.lookup(vpn)
        if value is None:
            raise KeyError(f"vpn {vpn} not mapped")
        owner = pte_mod.pte_tid(value)
        if owner == tid:
            return False
        if tid not in self._tids:
            raise KeyError(f"tid {tid} not registered")
        self._link_leaf(vpn, tid)
        if owner != PTE_SHARED_TID:
            self.flat.set_owner(vpn, PTE_SHARED_TID)
            self.stats.shared_promotions += 1
            return True
        return False

    def bulk_note_access(self, vpns: np.ndarray, tid: int) -> int:
        """Vectorized :meth:`note_access` over unique, mapped ``vpns``.

        Performs exactly the per-vpn transitions and leaf links the
        scalar path would, as array passes: pages owned by another
        thread flip private→shared with one table write, after one
        :meth:`_link_leaf` per covering leaf.  Returns the number of private→shared
        transitions (minor faults to charge).
        """
        if not self.enabled or vpns.size == 0:
            return 0
        flat = self.flat
        idx = flat.indices(vpns)
        owners = flat.owner[idx]
        transition = (owners != tid) & (owners != PTE_SHARED_TID)
        n_transitions = 0
        if transition.any():
            if tid not in self._tids:
                raise KeyError(f"tid {tid} not registered")
            t_vpns = vpns[transition]
            t_idx = idx[transition]
            if int(flat.pfn[t_idx].min()) < 0:
                raise KeyError(f"vpn {int(t_vpns[flat.pfn[t_idx] < 0][0])} not mapped")
            first = np.sort(np.unique(t_vpns >> LEVEL_BITS, return_index=True)[1])
            for vpn in t_vpns[first].tolist():
                self._link_leaf(vpn, tid)
            flat.owner[t_idx] = PTE_SHARED_TID
            flat.value[t_idx] = pte_mod.pte_with_tid(flat.value[t_idx], PTE_SHARED_TID)
            n_transitions = int(t_vpns.size)
            self.stats.shared_promotions += n_transitions
        # Already-shared pages only need the covering leaf linked once
        # per (leaf, tid); the candidate leaves are few (512 vpns each).
        shared = owners == PTE_SHARED_TID
        if shared.any():
            if tid not in self._tids:
                raise KeyError(f"tid {tid} not registered")
            shared_vpns = vpns[shared]
            if shared_vpns.size == 1 or bool((shared_vpns[1:] >= shared_vpns[:-1]).all()):
                # Ascending input (the hot-path callers pass np.unique /
                # flatnonzero output): the covering bases form a short
                # contiguous range, so scan it instead of paying a
                # per-call np.unique sort.  Any vpn of a base is a valid
                # link representative — _link_leaf only uses vpn >> 9 —
                # and after warm-up every base is already linked, making
                # this a handful of dict probes.
                leaf_tids = self._leaf_tids
                first_base = int(shared_vpns[0]) >> LEVEL_BITS
                last_base = int(shared_vpns[-1]) >> LEVEL_BITS
                for base in range(first_base, last_base + 1):
                    linked = leaf_tids.get(base)
                    if linked is not None and tid in linked:
                        continue
                    j = int(np.searchsorted(shared_vpns, base << LEVEL_BITS))
                    if j < shared_vpns.size and int(shared_vpns[j]) >> LEVEL_BITS == base:
                        self._link_leaf(int(shared_vpns[j]), tid)
            else:
                bases, first = np.unique(shared_vpns >> LEVEL_BITS, return_index=True)
                for base, vpn in zip(bases.tolist(), shared_vpns[first].tolist()):
                    if tid not in self._leaf_tids.get(base, ()):
                        self._link_leaf(vpn, tid)
        return n_transitions

    # -- queries ------------------------------------------------------------

    def lookup(self, vpn: int) -> int | None:
        """The PTE for ``vpn``, or ``None`` if unmapped."""
        flat = self.flat
        i = vpn - flat.base
        if i < 0 or i >= flat.pfn.size or flat.pfn[i] < 0:
            return None
        return int(flat.value[i])

    def iter_ptes(self) -> Iterator[tuple[int, int]]:
        """Yield ``(vpn, pte)`` for every mapped page, ascending by vpn."""
        flat = self.flat
        vpns = flat.present_vpns()
        yield from zip(vpns.tolist(), flat.value[flat.indices(vpns)].tolist())

    def update(self, vpn: int, new_value: int) -> None:
        """Single-store PTE update, visible to every thread."""
        if self.lookup(vpn) is None:
            raise KeyError(f"vpn {vpn} not mapped")
        self.flat.set(
            vpn,
            pte_mod.pte_pfn(new_value),
            pte_mod.pte_tid(new_value),
            pte_mod.pte_is_dirty(new_value),
            raw=new_value,
        )

    def unmap(self, vpn: int) -> int:
        """Clear the (shared) PTE and return its last value; every
        thread sees it vanish at once."""
        value = self.lookup(vpn)
        if value is None:
            raise KeyError(f"vpn {vpn} not mapped")
        self.flat.clear(vpn)
        return value

    def sharing_tids(self, vpn: int) -> set[int]:
        """Threads that may cache a translation for ``vpn``.

        Private page → exactly the owner.  Shared page → every thread
        linked to the covering leaf table.  Replication disabled →
        every registered thread (process-wide coherence).
        """
        value = self.lookup(vpn)
        if value is None:
            return set()
        if not self.enabled:
            return set(self._tids)
        owner = pte_mod.pte_tid(value)
        if owner != PTE_SHARED_TID:
            return {owner}
        return set(self._leaf_tids.get(vpn >> LEVEL_BITS, ()))

    def is_private(self, vpn: int) -> bool:
        """True when the page is owned by a single thread."""
        value = self.lookup(vpn)
        if value is None:
            raise KeyError(f"vpn {vpn} not mapped")
        return pte_mod.pte_tid(value) != PTE_SHARED_TID
