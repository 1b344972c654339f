"""Profiler interface and shared heat bookkeeping.

A profiler observes one process's whole epoch per call
(:meth:`Profiler.observe_plan`); a single :class:`AccessBatch` is a
one-segment :class:`EpochPlan`.  Each mechanism must produce exactly
what feeding the plan's segments one at a time, in order, would.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
class PlanPages:
    """Each segment's distinct pages, each with an any-write flag.

    Segment ``k``'s pages, ascending, are ``vpns[bounds[k]:bounds[k+1]]``;
    ``written[i]`` is true when that segment wrote ``vpns[i]`` at least
    once.  A page recurs once per segment that touched it.
    """

    vpns: np.ndarray  # int64
    written: np.ndarray  # bool, same shape
    bounds: np.ndarray  # int64, len n_segments + 1


@dataclass(eq=False)
class EpochPlan:
    """One epoch of traffic for one process, all threads concatenated.

    Segment ``i`` covers ``vpns[offsets[i]:offsets[i+1]]`` and belongs
    to thread ``tids[i]``; segments appear in tid order (0, 1, ...).
    Consumers work on the flat arrays with per-segment reductions over
    ``offsets``; a single :class:`AccessBatch` is a one-segment plan.

    ``pages`` holds the plan's :class:`PlanPages` once someone computed
    them: ``AddressSpace.record_plan`` builds them in its own pass and
    leaves them here for the profilers, and :meth:`page_sets` computes
    them with the same kernel when no one has.  The traffic arrays are
    read-only by contract.
    """

    pid: int
    vpns: np.ndarray  # int64, all segments back to back
    is_write: np.ndarray  # bool, same shape
    offsets: np.ndarray  # int64, len n_segments + 1, offsets[0] == 0
    tids: np.ndarray  # int64, len n_segments
    pages: PlanPages | None = field(default=None, repr=False)

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

    def index_pages(self, key: np.ndarray, lo: int, scratch: np.ndarray) -> PlanPages:
        """Compute and keep :attr:`pages` from the plan's access keys.

        ``key`` holds ``(vpn - lo) << 1 | is_write`` per access and
        ``scratch`` is an all-False bool array with a slot per key bin
        (``2 * span``), returned all-False.
        """
        ucat, written, bounds = kernels.plan_segment_unique(key, self.offsets, scratch)
        ucat += lo
        self.pages = PlanPages(vpns=ucat, written=written, bounds=bounds)
        return self.pages

    def page_sets(self) -> PlanPages:
        """The plan's :class:`PlanPages`, computed on first use."""
        if self.pages is not None:
            return self.pages
        if self.n == 0:
            return self.index_pages(self.vpns, 0, np.zeros(0, dtype=bool))
        lo = int(self.vpns.min())
        span = int(self.vpns.max()) - lo + 1
        key = self.vpns - lo
        key <<= 1
        key |= self.is_write
        return self.index_pages(key, lo, np.zeros(2 * span, dtype=bool))


@dataclass
class ProfilerStats:
    """Profiling cost charged to the *application* (e.g. hint faults),
    in cycles; the policies fold each epoch's increase into stalls."""

    app_overhead_cycles: float = 0.0


class Profiler:
    """Base class: per-(pid, vpn) exponentially-decayed heat.

    Subclasses implement :meth:`observe_plan`, which turns one
    process's whole epoch into heat contributions via their
    mechanism's lens; :meth:`observe` feeds a single batch through it
    as a one-segment plan.

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
        """Ingest one access batch: a one-segment plan."""
        self.observe_plan(EpochPlan(
            pid=batch.pid,
            vpns=batch.vpns,
            is_write=batch.is_write,
            offsets=np.array([0, batch.n], dtype=np.int64),
            tids=np.array([batch.tid], dtype=np.int64),
        ))

    def observe_plan(self, plan: EpochPlan) -> None:
        """Ingest one process's whole epoch (mechanism-specific).

        The result must equal feeding the segments one at a time, in
        order: per-segment RNG draws, sequential state (poison
        windows), each heat slot's adds in segment order, and new
        pages appended in (first segment, vpn) order.
        """
        raise NotImplementedError

    # -- common API ---------------------------------------------------------

    def end_epoch(self) -> None:
        """Decay heat; subclasses extend for rotation/scan bookkeeping."""
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

    def forget(self, pid: int) -> None:
        """Drop all state for an exited process."""
        self._heat.forget(pid)
        self._write_heat.forget(pid)
