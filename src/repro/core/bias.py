"""Biased page migration policy (§3.5): promotion & demotion selection.

Promotion: hot slow-tier candidates are classified per Table 1
(ownership from the PTE thread-id bits, write intensity from profiled
write fractions), enqueued into the four priority queues, and served
within the workload's promotion budget.  The queue class also fixes the
copy discipline — async (transactional) for read-intensive pages, sync
for write-intensive ones.

Demotion: coldest-first among the workload's fast-tier pages, with a
preference for pages whose slow-tier shadow is still valid (remap-only
demotion, near-free) — "reduces demotion costs by remapping non-dirty
pages, which are often the read-intensive ... pages we previously
prioritized for promotion".

Both selections come back as one :class:`Selection`: the chosen pages
as parallel arrays in selection order, which the daemon concatenates
into one :class:`~repro.mm.migration.MigrationBatch`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import kernels
from repro.core.classify import PageClass
from repro.core.queues import PromotionQueues
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.pte import PTE_SHARED_TID
from repro.mm.replication import ReplicatedPageTables
from repro.mm.shadow import ShadowTracker
from repro.profiling.base import Profiler

#: profiled write fraction at or above which a page is write-intensive
WRITE_INTENSIVE_THRESHOLD = 0.25

#: Table 1 strategy column by class value: write-intensive classes copy
#: blocking (index 0, no class, is unused)
_SYNC_BY_CLASS = np.array(
    [True] + [not PageClass(v).use_async_copy for v in range(1, max(PageClass) + 1)]
)


class Selection:
    """Pages chosen to move, as parallel arrays in selection order.

    ``vpns`` (int64), ``heats`` (float64), ``sync`` (bool: copy
    blocking), ``write_fractions`` (float64) and ``classes`` (int8: the
    Table 1 class value after MLFQ escalation; 0 for a demotion, which
    has none).  ``len()`` is the number of pages.
    """

    __slots__ = ("vpns", "heats", "sync", "write_fractions", "classes")

    def __init__(
        self,
        vpns: np.ndarray,
        heats: np.ndarray,
        sync: np.ndarray,
        write_fractions: np.ndarray,
        classes: np.ndarray,
    ) -> None:
        self.vpns = vpns
        self.heats = heats
        self.sync = sync
        self.write_fractions = write_fractions
        self.classes = classes

    def __len__(self) -> int:
        return int(self.vpns.size)

    @classmethod
    def empty(cls) -> Selection:
        return cls(
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64), np.empty(0, dtype=bool),
            np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int8),
        )

    def take(self, rows: np.ndarray) -> Selection:
        """The selection of ``rows``, in that order."""
        return Selection(
            self.vpns[rows], self.heats[rows], self.sync[rows],
            self.write_fractions[rows], self.classes[rows],
        )

    def __add__(self, other: Selection) -> Selection:
        """This selection followed by ``other``."""
        return Selection(*(
            np.concatenate((getattr(self, name), getattr(other, name))) for name in self.__slots__
        ))


@dataclass
class MigrationPlan:
    """One epoch's selections for one workload."""

    promotions: Selection = field(default_factory=Selection.empty)
    demotions: Selection = field(default_factory=Selection.empty)


class BiasedMigrationPolicy:
    """Per-workload promotion/demotion selection with Table 1 bias."""

    def __init__(
        self,
        *,
        hot_threshold: float = 10.0,
        boost_factor: float = 2.0,
    ) -> None:
        self.hot_threshold = hot_threshold
        #: pid -> its promotion queues (workload-dependent, §3.2)
        self._queues: dict[int, PromotionQueues] = {}
        self._boost_factor = boost_factor

    def queues_for(self, pid: int) -> PromotionQueues:
        q = self._queues.get(pid)
        if q is None:
            q = PromotionQueues(pid, boost_factor=self._boost_factor)
            self._queues[pid] = q
        return q

    def forget(self, pid: int) -> None:
        self._queues.pop(pid, None)

    # -- promotion ----------------------------------------------------------

    def refresh_candidates(
        self,
        pid: int,
        profiler: Profiler,
        repl: ReplicatedPageTables,
        allocator: FrameAllocator,
    ) -> int:
        """Classify + enqueue the workload's hot slow-tier pages.

        Returns the number of candidates enqueued this round.
        """
        queues = self.queues_for(pid)
        # Gather hot slow-tier pages in heat-insertion order (the order
        # the old dict iteration enqueued them in — the queues' running
        # class means depend on it).
        vpns, heats = profiler.heat_view(pid)
        if vpns.size == 0:
            return 0
        flat = repl.flat
        cand_vpns, cand_heats, priv = kernels.hot_slow_candidates(
            vpns, heats, self.hot_threshold, flat.pfn, flat.owner,
            flat.base, allocator.store.fast_frames, PTE_SHARED_TID,
        )
        if cand_vpns.size == 0:
            return 0
        wi = profiler.write_fraction_many(pid, cand_vpns) >= WRITE_INTENSIVE_THRESHOLD
        # Vectorized classify_page: write_fraction_many guarantees
        # [0, 1] so the scalar range check is redundant, and the
        # elementwise >= is the same compare it made per page.
        classes = np.where(
            priv,
            np.where(wi, PageClass.PRIVATE_WRITE, PageClass.PRIVATE_READ),
            np.where(wi, PageClass.SHARED_WRITE, PageClass.SHARED_READ),
        )
        queues.enqueue_many(cand_vpns, cand_heats, classes)
        return int(cand_vpns.size)

    def select_promotions(self, pid: int, budget: int, profiler: Profiler) -> Selection:
        """Serve up to ``budget`` promotions from the priority queues."""
        if budget <= 0:
            return Selection.empty()
        vpns, heats, classes = self.queues_for(pid).pop(budget)
        if not vpns.size:
            return Selection.empty()
        # write_fraction_many is elementwise-identical to the scalar
        # write_fraction.
        wfs = profiler.write_fraction_many(pid, vpns)
        return Selection(vpns, heats, _SYNC_BY_CLASS[classes], wfs, classes)

    # -- demotion ------------------------------------------------------------

    def select_demotions(
        self,
        pid: int,
        n_pages: int,
        profiler: Profiler,
        repl: ReplicatedPageTables,
        allocator: FrameAllocator,
        shadow: ShadowTracker | None = None,
        exclude: np.ndarray | None = None,
    ) -> Selection:
        """Pick ``n_pages`` fast-tier victims, coldest first, none of
        them in ``exclude``.

        Shadowed clean pages are preferred at equal coldness (they demote
        by remap); the sort key reflects that with a small bias rather
        than an absolute preference, so a hot shadowed page is still kept
        over a cold unshadowed one.  Demotions copy blocking (they are
        off the hot path; a shadow remap is cheap anyway).
        """
        if n_pages <= 0:
            return Selection.empty()
        flat = repl.flat
        vpns = flat.present_vpns()  # ascending — same order as the PTE walk
        if vpns.size == 0:
            return Selection.empty()
        idx = flat.indices(vpns)
        pfns = flat.pfn[idx]
        keep = pfns < allocator.store.fast_frames  # fast-tier pages only
        if exclude is not None and exclude.size:
            keep &= ~np.isin(vpns, exclude)
        vpns, pfns, idx = vpns[keep], pfns[keep], idx[keep]
        if vpns.size == 0:
            return Selection.empty()
        h = profiler.heat_of(pid, vpns)
        if shadow is not None:
            shadowed = ~flat.dirty[idx] & shadow.shadowed_mask(pfns)
        else:
            shadowed = np.zeros(vpns.size, dtype=bool)
        key = h * np.where(shadowed, 0.5, 1.0)
        order = _coldest_first(key, n_pages)
        return Selection(
            vpns[order], h[order], np.ones(order.size, dtype=bool),
            np.zeros(order.size, dtype=np.float64), np.zeros(order.size, dtype=np.int8),
        )


def _coldest_first(key: np.ndarray, n: int) -> np.ndarray:
    """Indices of the ``n`` smallest ``key`` rows, ascending by key and,
    among equal keys, by row.

    That is exactly ``np.lexsort((rows, key))[:n]``, which is the vpn
    tiebreak when rows are in ascending-vpn order.  A partition finds
    the n-th smallest key; only the rows strictly below it are sorted,
    and the first rows equal to it fill the rest in row order.
    """
    if n >= key.size:
        return np.argsort(key, kind="stable")
    kth = np.partition(key, n - 1)[n - 1]
    below = np.flatnonzero(key < kth)
    below = below[np.argsort(key[below], kind="stable")]
    ties = np.flatnonzero(key == kth)[: n - below.size]
    return np.concatenate((below, ties))
