"""Profiler interface and shared heat bookkeeping."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import kernels
from repro.profiling.heat_store import HeatStore


@dataclass(frozen=True)
class AccessBatch:
    """One epoch's worth of accesses from one thread of one process."""

    pid: int
    tid: int
    vpns: np.ndarray  # int64
    is_write: np.ndarray  # bool, same shape

    def __post_init__(self) -> None:
        if self.vpns.shape != self.is_write.shape:
            raise ValueError("vpns and is_write must have identical shape")
        if not np.issubdtype(self.vpns.dtype, np.integer):
            raise TypeError(
                f"vpns must have an integer dtype, got {self.vpns.dtype} "
                "(float vpns would silently mis-accumulate heat)"
            )
        if self.is_write.dtype != np.bool_:
            raise TypeError(
                f"is_write must have dtype bool, got {self.is_write.dtype} "
                "(non-bool masks would skew the write-heat bincounts)"
            )

    @property
    def n(self) -> int:
        return int(self.vpns.size)


@dataclass(frozen=True)
class EpochPlan:
    """One epoch of traffic for one process, all threads concatenated.

    Segment ``i`` covers ``vpns[offsets[i]:offsets[i+1]]`` and belongs
    to thread ``tids[i]``; segments appear in tid order (0, 1, ...).
    Consumers either iterate :meth:`segments` as per-thread
    :class:`AccessBatch` views or use the flat arrays plus
    ``np.add.reduceat``-style reductions over ``offsets``.
    """

    pid: int
    vpns: np.ndarray  # int64, all segments back to back
    is_write: np.ndarray  # bool, same shape
    offsets: np.ndarray  # int64, len n_segments + 1, offsets[0] == 0
    tids: np.ndarray  # int64, len n_segments

    def __post_init__(self) -> None:
        if self.vpns.shape != self.is_write.shape:
            raise ValueError("vpns and is_write must have identical shape")
        if self.offsets.size != self.tids.size + 1:
            raise ValueError("offsets must have one more entry than tids")
        if self.offsets.size and int(self.offsets[-1]) != int(self.vpns.size):
            raise ValueError("offsets[-1] must equal the access count")

    @property
    def n(self) -> int:
        return int(self.vpns.size)

    @property
    def n_segments(self) -> int:
        return int(self.tids.size)

    def segment(self, i: int) -> AccessBatch:
        """Segment ``i`` as an :class:`AccessBatch` (array views)."""
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return AccessBatch(
            pid=self.pid,
            tid=int(self.tids[i]),
            vpns=self.vpns[lo:hi],
            is_write=self.is_write[lo:hi],
        )

    def segments(self):
        """Iterate the per-thread batches, in segment order."""
        for i in range(self.n_segments):
            yield self.segment(i)


@dataclass
class ProfilerStats:
    """Cost/quality accounting common to all profilers."""

    epochs: int = 0
    samples_taken: int = 0
    accesses_seen: int = 0
    #: profiling CPU overhead charged to the *system* (daemon side)
    overhead_cycles: float = 0.0
    #: profiling overhead charged to the *application* (e.g. hint faults)
    app_overhead_cycles: float = 0.0


class Profiler:
    """Base class: per-(pid, vpn) exponentially-decayed heat.

    Subclasses implement :meth:`observe` to turn the raw stream into
    heat contributions via their mechanism's lens, then call
    :meth:`_accumulate`.

    Heat decays by ``decay`` each epoch (Memtis-style halving when
    ``decay=0.5``), so hotness tracks the recent past.

    Heat lives in a :class:`~repro.profiling.heat_store.HeatStore`
    (dense per-pid arrays).  :meth:`hotness` still materializes the
    classic ``{vpn: heat}`` dict for tests and cold paths; hot paths
    should use the vectorized accessors (:meth:`heat_view`,
    :meth:`write_fraction_many`, :meth:`hot_count`).
    """

    #: human-readable mechanism name, overridden by subclasses
    mechanism = "abstract"

    def __init__(self, decay: float = 0.5) -> None:
        if not 0.0 <= decay <= 1.0:
            raise ValueError("decay must lie in [0, 1]")
        self.decay = decay
        self._heat = HeatStore()
        self._write_heat = HeatStore()
        self.stats = ProfilerStats()

    # -- subclass API ----------------------------------------------------

    def observe(self, batch: AccessBatch) -> None:
        """Ingest one access batch (mechanism-specific)."""
        raise NotImplementedError

    def observe_plan(self, plan: EpochPlan) -> None:
        """Ingest one process's whole epoch.

        The default feeds the per-thread batches to :meth:`observe` in
        segment order, which is exact for every mechanism; subclasses with fused fast
        paths must preserve per-segment RNG draws, sequential state
        (poison windows), and per-segment heat-insertion order.
        """
        for batch in plan.segments():
            self.observe(batch)

    def _accumulate(self, pid: int, vpns: np.ndarray, weights: np.ndarray, write_weights: np.ndarray | None = None) -> None:
        """Add heat mass to pages of ``pid`` (vectorized per unique page)."""
        if vpns.size == 0:
            return
        ww = write_weights if write_weights is not None else np.zeros(vpns.size)
        uniq, sums, wsums = kernels.accumulate_unique(vpns, weights, ww)
        self._heat.accumulate(pid, uniq, sums)
        if write_weights is not None:
            written = wsums > 0.0
            if written.any():
                self._write_heat.accumulate(pid, uniq[written], wsums[written])

    # -- common API ---------------------------------------------------------

    def end_epoch(self) -> None:
        """Decay heat; subclasses extend for rotation/scan bookkeeping."""
        self.stats.epochs += 1
        if self.decay < 1.0:
            self._heat.decay_all(self.decay)
            self._write_heat.decay_all(self.decay)

    def hotness(self, pid: int) -> dict[int, float]:
        """Per-page heat estimates for ``pid`` as a dict (cold paths)."""
        return self._heat.as_dict(pid)

    def heat_view(self, pid: int) -> tuple[np.ndarray, np.ndarray]:
        """(vpns, heats) in heat-insertion order — the vectorized
        equivalent of iterating ``hotness(pid).items()``."""
        vpns = self._heat.ordered_vpns(pid)
        return vpns, self._heat.gather(pid, vpns)

    def heat_of(self, pid: int, vpns: np.ndarray) -> np.ndarray:
        """``hotness(pid).get(vpn, 0.0)`` vectorized over ``vpns``."""
        return self._heat.gather(pid, vpns)

    def hot_count(self, pid: int, threshold: float) -> int:
        """How many pages of ``pid`` have heat >= ``threshold``."""
        return self._heat.count_at_least(pid, threshold)

    def write_fraction(self, pid: int, vpn: int) -> float:
        """Estimated fraction of accesses to ``vpn`` that are writes."""
        h = self._heat.get(pid, vpn)
        if h <= 0.0:
            return 0.0
        w = self._write_heat.get(pid, vpn)
        return min(w / h, 1.0)

    def write_fraction_many(self, pid: int, vpns: np.ndarray) -> np.ndarray:
        """:meth:`write_fraction` vectorized over ``vpns``."""
        h = self._heat.gather(pid, vpns)
        w = self._write_heat.gather(pid, vpns)
        return kernels.write_fractions(h, w)

    def hottest(self, pid: int, n: int) -> list[tuple[int, float]]:
        """Top-``n`` (vpn, heat) pairs, hottest first, vpn-tiebroken."""
        return self._heat.hottest(pid, n)

    def forget(self, pid: int) -> None:
        """Drop all state for an exited process."""
        self._heat.forget(pid)
        self._write_heat.forget(pid)
