"""Dense per-pid heat arrays (the profiling half of the SoA refactor).

Replaces the old ``dict[pid, dict[vpn, float]]`` heat books with one
dense float64 array per pid over the pid's vpn range: accumulate is a
fancy-indexed add over bincount-compressed batches, decay is one
vectorized multiply plus threshold compaction, and policy-side reads
are numpy gathers instead of dict lookups.

Two properties of the old dicts are *observable* through policy
decisions and are preserved exactly:

* **Values** — every float is produced by the same elementwise
  arithmetic the dict path used (one add per unique vpn per batch, one
  multiply per epoch), so heats are bit-identical.
* **Iteration order** — promotion-queue heat averages and the
  tpp/nomad shuffle consume heats in dict *insertion* order, so each
  pid keeps an ordered key set (`dict[int, None]`): new vpns append in
  ascending order per batch (``np.unique`` sorts), dead vpns drop out
  on decay, exactly as dict keys did.
"""

from __future__ import annotations

import numpy as np

from repro import kernels

#: heat below this after decay is dropped (dict-compaction threshold)
DECAY_FLOOR = 1e-6

_GROW_PAD = 4096


class _PidHeat:
    """One pid's dense heat array plus the insertion-ordered key set."""

    __slots__ = ("base", "heat", "live", "order", "_order_cache", "min_live")

    def __init__(self) -> None:
        self.base = 0
        self.heat = np.empty(0, dtype=np.float64)
        self.live = np.zeros(0, dtype=bool)
        self.order: dict[int, None] = {}
        self._order_cache: np.ndarray | None = None
        #: lower bound on the minimum live heat.  Decay multiplies it
        #: alongside the array; while it stays >= the compaction floor
        #: no live entry can have dropped below, so the per-epoch
        #: compaction scan is provably a no-op and is skipped (the
        #: multiply itself always runs — deferring it would change
        #: float association and break bit-identity).
        self.min_live = np.inf

    def ensure(self, lo: int, hi: int) -> None:
        """Grow arrays to cover vpns in ``[lo, hi]``.

        Growth at least doubles the array and puts the new slack on the
        side that ran out: below the data when ``lo`` fell under the
        base, above it otherwise.  Writes creeping in either direction
        therefore reallocate O(log span) times.
        """
        if self.heat.size and self.base <= lo and hi < self.base + self.heat.size:
            return
        if self.heat.size == 0:
            new_base = max(lo - 64, 0)
            new_size = max(hi - new_base + _GROW_PAD, _GROW_PAD)
            old = None
        else:
            span_lo = min(self.base, lo)
            span_hi = max(self.base + self.heat.size, hi + 1)
            new_size = max(span_hi - span_lo + _GROW_PAD, 2 * self.heat.size)
            new_base = max(span_hi - new_size, 0) if lo < self.base else span_lo
            old = (self.base, self.heat, self.live)
        heat = np.zeros(new_size, dtype=np.float64)
        live = np.zeros(new_size, dtype=bool)
        if old is not None:
            ob, oheat, olive = old
            off = ob - new_base
            heat[off:off + oheat.size] = oheat
            live[off:off + olive.size] = olive
        self.base, self.heat, self.live = new_base, heat, live

    def ordered_vpns(self) -> np.ndarray:
        if self._order_cache is None:
            self._order_cache = np.fromiter(
                self.order, dtype=np.int64, count=len(self.order)
            )
        return self._order_cache

    def copy(self) -> "_PidHeat":
        dup = _PidHeat()
        dup.base = self.base
        dup.heat = self.heat.copy()
        dup.live = self.live.copy()
        dup.order = dict(self.order)
        dup.min_live = self.min_live
        return dup


class HeatStore:
    """Per-(pid, vpn) heat as dense arrays with dict-equivalent semantics."""

    def __init__(self) -> None:
        self._pids: dict[int, _PidHeat] = {}

    # -- writes ----------------------------------------------------------

    def accumulate(self, pid: int, vpns: np.ndarray, sums: np.ndarray) -> None:
        """Add ``sums`` to ``vpns`` (unique, ascending) for ``pid``.

        Equivalent to ``heat[vpn] = heat.get(vpn, 0.0) + w`` per entry;
        new keys enter the order set in ascending-vpn order, matching
        the dict path (``np.unique`` output is sorted).
        """
        if vpns.size == 0:
            return
        ph = self._pids.setdefault(pid, _PidHeat())
        ph.ensure(int(vpns[0]), int(vpns[-1]))
        idx = vpns - ph.base
        new, written_min = kernels.heat_accumulate(ph.heat, ph.live, idx, sums)
        if new.any():
            order = ph.order
            for vpn in vpns[new].tolist():
                order[vpn] = None
            ph._order_cache = None
        if written_min < ph.min_live:
            ph.min_live = written_min

    def add_scaled(self, pid: int, vpns: np.ndarray, heats: np.ndarray, scale: float) -> None:
        """``heat[vpn] = heat.get(vpn, 0.0) + h * scale`` in given order.

        Used by the hybrid profiler's fusion pass; ``vpns`` must be
        unique but may be in any order — new keys append in exactly
        that order (the old dict-update order).
        """
        if vpns.size == 0:
            return
        ph = self._pids.setdefault(pid, _PidHeat())
        ph.ensure(int(vpns.min()), int(vpns.max()))
        idx = vpns - ph.base
        new, written_min = kernels.heat_add_scaled(ph.heat, ph.live, idx, heats, scale)
        if new.any():
            order = ph.order
            for vpn in vpns[new].tolist():
                order[vpn] = None
            ph._order_cache = None
        if written_min < ph.min_live:
            ph.min_live = written_min

    def adopt_copy(self, pid: int, src: "HeatStore") -> None:
        """Replace ``pid``'s book with a copy of ``src``'s (fusion base)."""
        sph = src._pids.get(pid)
        if sph is None:
            self._pids.pop(pid, None)
        else:
            self._pids[pid] = sph.copy()

    def decay_all(self, decay: float, floor: float = DECAY_FLOOR) -> None:
        """One-shot decay: ``heat *= decay`` then drop entries < floor.

        The multiply always runs (deferring it would re-associate float
        products and break bit-identity); the compaction *scan* is
        skipped whenever the pid's ``min_live`` lower bound proves no
        live entry can be below the floor — the lazy-compaction path
        that keeps million-frame books at one multiply per epoch.
        """
        for ph in self._pids.values():
            kernels.heat_decay(ph.heat, decay)  # non-live entries are exactly 0.0
            ph.min_live *= decay
            if ph.min_live >= floor:
                continue  # bound >= floor: scan provably drops nothing
            dead_idx = kernels.heat_compact(ph.heat, ph.live, floor)
            if dead_idx.size:
                order = ph.order
                for vpn in (dead_idx + ph.base).tolist():
                    del order[vpn]
                ph._order_cache = None
            # the scan visited every live slot anyway: tighten the
            # bound to the exact survivor minimum
            if ph.order:
                ph.min_live = float(kernels.heat_min_live(ph.heat, ph.live))
            else:
                ph.min_live = np.inf

    def forget(self, pid: int) -> None:
        self._pids.pop(pid, None)

    def clear(self) -> None:
        self._pids.clear()

    # -- reads -----------------------------------------------------------

    def pids(self) -> list[int]:
        return list(self._pids)

    def ordered_vpns(self, pid: int) -> np.ndarray:
        """Live vpns in insertion order (the old dict iteration order)."""
        ph = self._pids.get(pid)
        if ph is None:
            return np.empty(0, dtype=np.int64)
        return ph.ordered_vpns()

    def gather(self, pid: int, vpns: np.ndarray) -> np.ndarray:
        """``heat.get(vpn, 0.0)`` vectorized over ``vpns``."""
        ph = self._pids.get(pid)
        if ph is None or ph.heat.size == 0:
            return np.zeros(vpns.size, dtype=np.float64)
        return kernels.heat_gather(ph.heat, ph.base, vpns)

    def get(self, pid: int, vpn: int) -> float:
        ph = self._pids.get(pid)
        if ph is None:
            return 0.0
        i = vpn - ph.base
        if 0 <= i < ph.heat.size:
            return float(ph.heat[i])
        return 0.0

    def count_at_least(self, pid: int, threshold: float) -> int:
        """How many live entries have heat >= threshold."""
        ph = self._pids.get(pid)
        if ph is None:
            return 0
        return int((ph.live & (ph.heat >= threshold)).sum())

    def as_dict(self, pid: int) -> dict[int, float]:
        """Materialize the old dict view (insertion order, python floats)."""
        ph = self._pids.get(pid)
        if ph is None:
            return {}
        vpns = ph.ordered_vpns()
        heats = ph.heat[vpns - ph.base].tolist()
        return dict(zip(vpns.tolist(), heats))

    def check_consistency(self) -> None:
        """Raise ``RuntimeError`` if any pid's key set and arrays diverge.

        The dict-equivalence contract (module docstring) only holds if
        the insertion-ordered key set and the dense ``live`` mask name
        exactly the same vpns, the order cache (when built) mirrors the
        key set, and every dead slot holds exactly 0.0 heat (decay
        compaction zeroes what it drops).  Used by the fuzz oracle.
        """
        for pid, ph in self._pids.items():
            live_vpns = np.flatnonzero(ph.live) + ph.base  # ascending
            order_arr = np.fromiter(ph.order, dtype=np.int64, count=len(ph.order))
            order_sorted = np.sort(order_arr)
            if not np.array_equal(live_vpns, order_sorted):
                missing = np.setdiff1d(live_vpns, order_sorted)[:8].tolist()
                extra = np.setdiff1d(order_sorted, live_vpns)[:8].tolist()
                raise RuntimeError(
                    f"pid {pid} heat key set desynced: {live_vpns.size} live vs "
                    f"{order_arr.size} ordered (live-only {missing}, order-only {extra})"
                )
            cache = ph._order_cache
            if cache is not None and not np.array_equal(np.sort(cache), order_sorted):
                raise RuntimeError(f"pid {pid} heat order cache stale")
            dead_heat = np.flatnonzero(~ph.live & (ph.heat != 0.0))
            if dead_heat.size:
                vpn = int(dead_heat[0] + ph.base)
                raise RuntimeError(
                    f"pid {pid}: {dead_heat.size} dead slot(s) hold nonzero heat "
                    f"(first vpn {vpn} = {float(ph.heat[dead_heat[0]])})"
                )
            if live_vpns.size:
                true_min = float(ph.heat[ph.live].min())
                if true_min < ph.min_live:
                    raise RuntimeError(
                        f"pid {pid}: min_live bound {ph.min_live} above true "
                        f"minimum live heat {true_min} (lazy compaction unsound)"
                    )

    def hottest(self, pid: int, n: int) -> list[tuple[int, float]]:
        """Top-``n`` (vpn, heat), hottest first, vpn-tiebroken.

        ``argpartition`` prunes to the candidate set before the exact
        ``(-heat, vpn)`` ordering (a stable lexsort) so the full-table
        sort only touches ~n entries.
        """
        ph = self._pids.get(pid)
        if ph is None or n <= 0 or not ph.order:
            return []
        vpns, heats = kernels.topk_live(ph.heat, ph.live, ph.base, n)
        order = np.lexsort((vpns, -heats))[:n]
        return list(zip(vpns[order].tolist(), heats[order].tolist()))
