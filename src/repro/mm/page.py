"""Physical frame metadata.

One :class:`PhysPage` exists per physical frame the simulator has handed
out.  It carries the reverse mapping (which process/vpn maps it) and the
frame's access counts for the current epoch.

Since the struct-of-arrays refactor the *data* lives in
:class:`repro.mm.page_store.PageStatsStore`; a PhysPage is a thin view
over one store row ("objects are views, arrays are truth").  Scalar
reads and writes go through properties so existing object-at-a-time
code — tests, the migration engine's per-page bookkeeping — keeps
working unchanged, while hot paths bypass the views entirely and
operate on the arrays.
"""

from __future__ import annotations

import enum

from repro.mm.page_store import NONE_SENTINEL, PageStatsStore


class PageState(enum.Enum):
    """Lifecycle of a physical frame."""

    FREE = "free"
    MAPPED = "mapped"
    MIGRATING = "migrating"  # transactional copy in flight
    SHADOW = "shadow"  # retained slow-tier copy of a promoted page


#: enum ↔ int8 store code (index == code, see page_store.STATE_*)
_STATE_BY_CODE = (PageState.FREE, PageState.MAPPED, PageState.MIGRATING, PageState.SHADOW)
_CODE_BY_STATE = {s: i for i, s in enumerate(_STATE_BY_CODE)}


class PhysPage:
    """View over one :class:`PageStatsStore` row.

    Attributes (all backed by store arrays)
    ---------------------------------------
    pfn:
        Global physical frame number (tier encoded by the allocator).
    tier_id:
        0 = fast, 1 = slow, read off the row: the store's rows below
        its ``fast_frames`` are the fast tier.
    pid / vpn:
        Reverse map: the single process mapping this frame.  The
        simulator models private anonymous memory (the paper's
        workloads), so one frame has at most one (pid, vpn) mapping;
        *thread-level* sharing within the process is tracked in the PTE
        ownership bits, not here.
    epoch_reads / epoch_writes:
        Access counts since the last epoch reset (ground-truth hotness).
        Setting either nonzero marks the frame touched, so the reset
        visits it.
    last_access_cycle:
        Cycle of the last epoch that accessed the frame (TPP's
        recency-ordered reclaim).

    Page heat is not frame state: the profilers keep it per pid and
    vpn (:mod:`repro.profiling.heat_store`).  Nor are the threads that
    touched a page, which live in the PTE ownership bits
    (:mod:`repro.mm.replication`), or a promoted page's retained
    slow-tier twin, which :class:`repro.mm.shadow.ShadowTracker`
    records.  No per-frame flag tracks writes during a transactional
    copy: the migration engine draws whether a copy window was dirtied
    from its Poisson write model instead.
    """

    __slots__ = ("_store", "_row", "pfn")

    def __init__(
        self,
        pfn: int,
        tier_id: int | None = None,
        state: PageState = PageState.FREE,
        *,
        store: PageStatsStore | None = None,
        row: int | None = None,
    ) -> None:
        if store is None:
            # Standalone page (unit tests, ad-hoc construction): a
            # private single-row store keeps the view semantics intact.
            # Its one row is fast exactly when the page is.
            store = PageStatsStore(n_frames=1, fast_frames=1 - (tier_id or 0))
            row = 0
        elif row is None:
            row = pfn
        self._store = store
        self._row = row
        self.pfn = pfn
        if tier_id is not None and tier_id != self.tier_id:
            raise ValueError(f"frame {pfn} is in tier {self.tier_id}, not {tier_id}")
        if state is not PageState.FREE:
            store.state[row] = _CODE_BY_STATE[state]

    # -- store-backed attributes -----------------------------------------

    @property
    def tier_id(self) -> int:
        return 0 if self._row < self._store.fast_frames else 1

    @property
    def state(self) -> PageState:
        return _STATE_BY_CODE[int(self._store.state[self._row])]

    @state.setter
    def state(self, value: PageState) -> None:
        self._store.state[self._row] = _CODE_BY_STATE[value]

    @property
    def pid(self) -> int | None:
        v = int(self._store.pid[self._row])
        return None if v == NONE_SENTINEL else v

    @pid.setter
    def pid(self, value: int | None) -> None:
        self._store.pid[self._row] = NONE_SENTINEL if value is None else value

    @property
    def vpn(self) -> int | None:
        v = int(self._store.vpn[self._row])
        return None if v == NONE_SENTINEL else v

    @vpn.setter
    def vpn(self, value: int | None) -> None:
        self._store.vpn[self._row] = NONE_SENTINEL if value is None else value

    @property
    def last_access_cycle(self) -> int:
        return int(self._store.last_access_cycle[self._row])

    @last_access_cycle.setter
    def last_access_cycle(self, value: int) -> None:
        self._store.last_access_cycle[self._row] = value

    @property
    def epoch_reads(self) -> int:
        return int(self._store.epoch_reads[self._row])

    @epoch_reads.setter
    def epoch_reads(self, value: int) -> None:
        self._store.epoch_reads[self._row] = value
        if value:
            self._store.touched[self._row] = True

    @property
    def epoch_writes(self) -> int:
        return int(self._store.epoch_writes[self._row])

    @epoch_writes.setter
    def epoch_writes(self, value: int) -> None:
        self._store.epoch_writes[self._row] = value
        if value:
            self._store.touched[self._row] = True

    # -- mutations -------------------------------------------------------

    def reset_epoch_counters(self) -> None:
        """Start a fresh profiling epoch (heat is decayed elsewhere)."""
        s, r = self._store, self._row
        s.epoch_reads[r] = 0
        s.epoch_writes[r] = 0
        s.touched[r] = False

    def attach(self, pid: int, vpn: int) -> None:
        """Bind this frame to a virtual page (allocator → address space)."""
        if self.state not in (PageState.FREE, PageState.SHADOW):
            raise ValueError(f"frame {self.pfn} already {self.state.value}")
        self.pid = pid
        self.vpn = vpn
        self.state = PageState.MAPPED

    def detach(self) -> None:
        """Unbind and reset per-mapping statistics."""
        self._store.detach_row(self._row)

    def __eq__(self, other: object) -> bool:
        """Views are interchangeable: equal iff they alias one store row.

        The allocator builds views on demand instead of caching one per
        frame, so two views of the same frame are distinct objects but
        must compare (and hash) as the same page.
        """
        if not isinstance(other, PhysPage):
            return NotImplemented
        return (
            self._store is other._store
            and self._row == other._row
            and self.pfn == other.pfn
        )

    def __hash__(self) -> int:
        return hash((id(self._store), self._row, self.pfn))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PhysPage(pfn={self.pfn}, tier={self.tier_id}, state={self.state.value}, "
            f"pid={self.pid}, vpn={self.vpn}, epoch_reads={self.epoch_reads}, "
            f"epoch_writes={self.epoch_writes})"
        )

