"""Struct-of-arrays store for per-frame state (DESIGN.md §3).

All per-frame truth — lifecycle state, reverse map, per-epoch access
counters, free-list membership — lives here as parallel numpy arrays
indexed by PFN: eight columns, 43 bytes per materialized frame.  A
frame's tier is its PFN's side of ``fast_frames``, so no column holds it.
:class:`~repro.mm.page.PhysPage` objects are thin *views* over one row;
the arrays are authoritative.  That inversion is
what lets the hot path (per-epoch counter updates, ground-truth hot/cold
accounting, candidate gathering) run as vectorized reductions instead of
object-at-a-time Python loops.

Bit-for-bit equivalence with the old object layout is part of the
contract: every scalar read through a view returns exactly the value the
old dataclass would have held, and all vectorized updates perform the
same elementwise arithmetic the old per-page loops did.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

# Integer lifecycle codes (mirrors repro.mm.page.PageState; kept as raw
# ints here so the store has no import cycle with the view class).
STATE_FREE = 0
STATE_MAPPED = 1
STATE_MIGRATING = 2
STATE_SHADOW = 3

#: pid/vpn/shadow "absent" sentinel (real pids/vpns are non-negative).
NONE_SENTINEL = -1


#: Frames per growth segment.  Heaps at or below one chunk (every
#: pre-existing test/bench scenario) materialize fully at construction,
#: so chunking is invisible to them; larger heaps grow on demand.
CHUNK_FRAMES = 1 << 16


class PageStatsStore:
    """Parallel per-frame arrays indexed by PFN.

    Columns are materialized in power-of-two growth segments
    (:data:`CHUNK_FRAMES`-aligned) rather than one dense preallocation:
    ``capacity`` tracks the materialized prefix ``[0, capacity)`` and
    :meth:`ensure` doubles it on demand.  Every frame at or above
    ``capacity`` is virgin — never allocated, implicitly FREE with all
    counters zero and its free-list bit equal to ``free_fill`` — so
    column scans over the materialized prefix see exactly the state a
    dense layout would hold.

    Parameters
    ----------
    n_frames:
        Total number of physical frames (fast + slow).
    fast_frames:
        Size of the fast tier; PFNs ``[0, fast_frames)`` are tier 0 and
        the rest tier 1 (the allocator's contiguous partitioning).
    chunk_frames:
        Growth segment size (tests shrink it to cover boundaries).
    """

    def __init__(self, n_frames: int, fast_frames: int, *, chunk_frames: int = CHUNK_FRAMES) -> None:
        if n_frames <= 0:
            raise ValueError("store needs at least one frame")
        if chunk_frames <= 0 or chunk_frames & (chunk_frames - 1):
            raise ValueError("chunk_frames must be a positive power of two")
        self.n_frames = n_frames
        self.fast_frames = fast_frames
        self.chunk_frames = chunk_frames
        #: fill value for ``in_free_list`` rows materialized by growth
        #: (the allocator flips this to True: its frames start free).
        self.free_fill = False
        self.capacity = 0
        self._alloc_columns(0)
        self.ensure(min(n_frames, chunk_frames))

    def _alloc_columns(self, n: int) -> None:
        self.state = np.empty(n, dtype=np.int8)
        self.pid = np.empty(n, dtype=np.int64)
        self.vpn = np.empty(n, dtype=np.int64)
        self.epoch_reads = np.empty(n, dtype=np.int64)
        self.epoch_writes = np.empty(n, dtype=np.int64)
        self.last_access_cycle = np.empty(n, dtype=np.int64)
        #: frames whose epoch counters may be nonzero (touched-set reset)
        self.touched = np.empty(n, dtype=bool)
        #: O(1) double-free detection (replaces deque membership scans)
        self.in_free_list = np.empty(n, dtype=bool)

    _COLUMNS = (
        "state", "pid", "vpn",
        "epoch_reads", "epoch_writes", "last_access_cycle",
        "touched", "in_free_list",
    )

    def ensure(self, limit: int) -> None:
        """Materialize columns covering PFNs ``[0, limit)``.

        Growth doubles the capacity (chunk-aligned) so repeated
        single-frame extensions stay amortized O(1); new rows are
        initialized to the virgin-frame defaults.
        """
        if limit <= self.capacity:
            return
        if limit > self.n_frames:
            raise ValueError(f"ensure({limit}) exceeds {self.n_frames} frames")
        chunk = self.chunk_frames
        new_cap = max(self.capacity * 2, ((limit + chunk - 1) // chunk) * chunk)
        new_cap = min(new_cap, self.n_frames)
        old = {name: getattr(self, name) for name in self._COLUMNS}
        lo = self.capacity
        self._alloc_columns(new_cap)
        for name, arr in old.items():
            getattr(self, name)[:lo] = arr
        self.state[lo:] = STATE_FREE
        self.pid[lo:] = NONE_SENTINEL
        self.vpn[lo:] = NONE_SENTINEL
        self.epoch_reads[lo:] = 0
        self.epoch_writes[lo:] = 0
        self.last_access_cycle[lo:] = 0
        self.touched[lo:] = False
        self.in_free_list[lo:] = self.free_fill
        self.capacity = new_cap

    # -- vectorized hot-path updates -------------------------------------

    def record_epoch_rows(
        self,
        pfns: np.ndarray,
        n_reads: np.ndarray,
        n_writes: np.ndarray,
        cycle: int,
    ) -> None:
        """Account one epoch's per-frame access counts.

        ``pfns`` are the epoch's unique frames (one row each) with
        counts already summed across threads.  Integer adds commute and
        ``cycle`` is the same for every thread of an epoch, so one pass
        lands exactly where per-thread updates would.
        """
        kernels.page_record_rows(
            self.epoch_reads, self.epoch_writes, self.last_access_cycle,
            self.touched, pfns, n_reads, n_writes, cycle,
        )

    def reset_epoch_counters(self) -> None:
        """Zero epoch counters on touched live frames (idle frames free).

        Matches the old full-table walk exactly: only MAPPED/MIGRATING
        frames are cleared — SHADOW frames keep their counters (they are
        invisible to the PTE walk until remapped) and stay in the
        touched set so a later remap still gets them reset.
        """
        kernels.page_reset_epoch(
            self.touched, self.state, self.epoch_reads, self.epoch_writes
        )

    # -- vectorized queries ----------------------------------------------

    def owned_frames(self, pid: int) -> np.ndarray:
        """Every non-free frame bound to ``pid``, ascending.

        This *includes* SHADOW frames: a retained slow-tier twin still
        belongs to the process that promoted it, and teardown must
        reclaim it too (otherwise stale shadows leak when their owner
        exits).
        """
        return np.flatnonzero((self.pid == pid) & (self.state != STATE_FREE))

    def foreign_frames(self, live_pids) -> np.ndarray:
        """Non-free frames whose owner is not in ``live_pids``, ascending.

        The global leak sweep: after teardown no frame may remain bound
        to a pid that is no longer running.  Complements
        :meth:`owned_frames`, which only audits one (known) pid.
        """
        bound = self.state != STATE_FREE
        if not bound.any():
            return np.empty(0, dtype=np.int64)
        live = np.asarray(sorted(live_pids), dtype=np.int64)
        return np.flatnonzero(bound & ~np.isin(self.pid, live))

    def fast_usage(self, pid: int) -> int:
        """How many fast-tier frames ``pid`` maps (PTE-walk equivalent)."""
        return int(kernels.pid_fast_usage(self.state, self.pid, pid, self.fast_frames))

    def ground_truth_hotness(self, pid: int, cut: int) -> tuple[int, int, int, int]:
        """(hot, hot∧fast, cold∧fast, fast) page counts for ``pid``.

        A hot frame has at least ``cut`` epoch accesses, so nonzero
        epoch counters, so it is in the touched set
        (:meth:`check_row_invariants`).  The scan therefore covers the
        fast rows ``[:fast_frames]`` and the touched rows above them,
        not every materialized row; ``cut`` must be at least 1 for that
        to be exact.
        """
        if cut < 1:
            raise ValueError(f"hot cut must be at least 1 access, got {cut}")
        hot, hot_fast, cold_fast, fast = kernels.pid_ground_truth(
            self.state, self.pid, self.epoch_reads, self.epoch_writes,
            self.touched, pid, self.fast_frames, cut,
        )
        return (int(hot), int(hot_fast), int(cold_fast), int(fast))

    # -- row lifecycle (attach/detach mirror PhysPage semantics) ---------

    def detach_row(self, pfn: int) -> None:
        """Unbind a frame and reset per-mapping statistics."""
        self.pid[pfn] = NONE_SENTINEL
        self.vpn[pfn] = NONE_SENTINEL
        self.state[pfn] = STATE_FREE
        self.epoch_reads[pfn] = 0
        self.epoch_writes[pfn] = 0
        self.touched[pfn] = False

    # -- consistency checks (exercised by the property tests) ------------

    def check_row_invariants(self) -> None:
        """Raise AssertionError if any row is internally inconsistent."""
        free = self.state == STATE_FREE
        assert (self.pid[free] == NONE_SENTINEL).all(), "free frame with pid"
        assert (self.vpn[free] == NONE_SENTINEL).all(), "free frame with vpn"
        mapped = (self.state == STATE_MAPPED) | (self.state == STATE_MIGRATING)
        assert (self.pid[mapped] != NONE_SENTINEL).all(), "mapped frame without pid"
        assert (self.vpn[mapped] != NONE_SENTINEL).all(), "mapped frame without vpn"
        nonzero = (self.epoch_reads > 0) | (self.epoch_writes > 0)
        assert (self.touched[nonzero]).all(), "epoch counters outside touched set"
