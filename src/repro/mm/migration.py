"""The five-phase page migration engine.

Paper §2.1 decomposes migration into: ① kernel trapping, ② PTE locking
and unmapping, ③ TLB shootdown via IPIs, ④ content copy between tiers,
⑤ PTE remapping.  This engine executes those phases against the
*structural* substrate (page tables, allocator, LRU pagevecs) while cycle costs
come from the calibrated :class:`MigrationCostModel`, so both the
mechanism's behaviour and its price are observable.  TLB contents are
not modelled: a shootdown's scope (the cores its IPIs reach) comes from
the replicated page tables, and its price from the cost model.

Three copy disciplines are implemented:

* **sync** — the classic blocking path (TPP promotion): application
  threads accessing the page stall for the whole operation.
* **async** — kswapd-style background migration (Memtis): off the
  critical path, but the page is unmapped during copy, so concurrent
  accesses fault-stall for the tail of the copy.
* **transactional** — Nomad/Vulcan: the page *stays mapped* during the
  copy; a write during the copy window dirties the destination stale and
  the transaction retries, up to a bound, then falls back to sync.  This
  is what makes async copying lose on write-intensive pages (paper
  Observation #4 / Fig. 4).

Vulcan's two mechanism optimizations are flags:

* ``opt_prep`` — scoped (per-application) LRU drain instead of
  ``lru_add_drain_all()``;
* ``opt_tlb`` — per-thread page-table shootdown scoping: IPIs reach
  only the cores of threads that can cache the page's translation
  (paper insight #3).

There is one executor, :meth:`MigrationEngine.migrate_batch`.  It takes
a :class:`MigrationBatch`, the moves as parallel arrays; a list of
:class:`MigrationRequest` converts into one at the door.  Only what
depends on the order of pages runs in one sequential loop: free-list
pops and appends (their queue order decides every destination frame),
injected-fault rolls and transactional dirty draws (each consumes an
RNG stream in page order), and trace events.  Everything else is array
passes over the batch: the duplicate-vpn check, translation, shootdown
scope with its TLB and IPI price, the dirty-copy probability, the cycle
accounting, the new PTEs and the store, page-table and shadow-table
scatters.  The cycle buckets get the same binary float adds, in the same
order, that charging one page at a time made (``np.add.accumulate``,
never a pairwise ``np.sum``).  Tracing and fault injection only add work
inside the loop: they never select a different path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.machine.platform import Machine
from repro.mm import pte as pte_mod
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration_costs import MigrationCostModel
from repro.mm.page_store import NONE_SENTINEL, STATE_FREE, STATE_MAPPED, STATE_SHADOW
from repro.mm.replication import LEVEL_BITS
from repro.mm.shadow import ShadowTracker
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer


class MigrationPhase(enum.Enum):
    """The five phases of §2.1's migration mechanism, plus the batch-level
    preparation (LRU drain + isolation) that precedes them."""

    PREP = "prep"
    TRAP = "trap"
    UNMAP = "unmap"
    SHOOTDOWN = "shootdown"
    COPY = "copy"
    REMAP = "remap"


class MigrationOutcome(enum.Enum):
    SUCCESS = "success"
    RETRIED = "retried"  # transactional copy restarted at least once
    FELL_BACK_SYNC = "fell_back_sync"  # transactional gave up, went sync
    FAILED = "failed"  # no destination frame, or an injected fault


class FaultKind(enum.Enum):
    """Typed injected-fault outcomes (scenario fault model).

    Each names the way a migration dies and what the engine must absorb
    without corrupting page state:

    * ``ABORTED_SYNC`` — a blocking migration aborts mid-copy (page
      pinned / refcount raced): the work up to the abort is wasted stall,
      the PTE is restored at the source, the destination frame freed.
    * ``LOST_ASYNC`` — a background (transactional) work item is dropped
      before commit: a full copy's worth of cycles wasted off the
      critical path, source stays mapped, destination freed.
    * ``POISONED_SHADOW`` — a retained slow-tier twin is found corrupt
      exactly when a remap-demotion wants it: the shadow is discarded
      and the demotion falls back to a full copy.
    """

    ABORTED_SYNC = "aborted_sync"
    LOST_ASYNC = "lost_async"
    POISONED_SHADOW = "poisoned_shadow"


class MigrationRequest(NamedTuple):
    """One page to move."""

    pid: int
    vpn: int
    dest_tier: int
    sync: bool = True
    #: Expected write fraction, used by the transactional engine to
    #: simulate dirty-during-copy probability.
    write_fraction: float = 0.0
    #: Concurrent access rate to this page (accesses per 1K cycles),
    #: driving the dirty-probability model during async copy windows.
    access_rate_per_kcycle: float = 0.0


class MigrationBatch:
    """Page moves as parallel arrays, one row per page, in execution order.

    The columns are the fields of :class:`MigrationRequest`: ``pids`` and
    ``vpns`` (int64), ``dest_tiers`` (int64), ``sync`` (bool),
    ``write_fractions`` and ``access_rates`` (float64, accesses per 1K
    cycles).  ``len()`` is the number of moves.
    """

    __slots__ = ("pids", "vpns", "dest_tiers", "sync", "write_fractions", "access_rates")

    def __init__(
        self,
        pids: np.ndarray,
        vpns: np.ndarray,
        dest_tiers: np.ndarray,
        sync: np.ndarray,
        write_fractions: np.ndarray,
        access_rates: np.ndarray,
    ) -> None:
        self.pids = pids
        self.vpns = vpns
        self.dest_tiers = dest_tiers
        self.sync = sync
        self.write_fractions = write_fractions
        self.access_rates = access_rates

    def __len__(self) -> int:
        return int(self.vpns.size)

    @classmethod
    def of(cls, requests: list[MigrationRequest]) -> MigrationBatch:
        """The batch holding ``requests``, in order."""
        if not requests:
            pids = vpns = dest = sync = wf = rate = ()
        else:
            pids, vpns, dest, sync, wf, rate = zip(*requests)
        return cls(
            np.array(pids, dtype=np.int64),
            np.array(vpns, dtype=np.int64),
            np.array(dest, dtype=np.int64),
            np.array(sync, dtype=bool),
            np.array(wf, dtype=np.float64),
            np.array(rate, dtype=np.float64),
        )


@dataclass
class MigrationStats:
    """Aggregate accounting for one engine."""

    migrations: int = 0
    pages_moved: int = 0
    promotions: int = 0
    demotions: int = 0
    retries: int = 0
    sync_fallbacks: int = 0
    failures: int = 0
    shadow_remaps: int = 0
    #: injected faults absorbed, keyed by FaultKind value
    faults_injected: dict[str, int] = field(default_factory=dict)
    total_cycles: float = 0.0
    stall_cycles: float = 0.0  # cycles application threads were blocked
    phase_cycles: dict[str, float] = field(
        default_factory=lambda: {p.value: 0.0 for p in MigrationPhase}
    )


@dataclass(frozen=True)
class OptimizationFlags:
    """Which of Vulcan's mechanism optimizations are active."""

    opt_prep: bool = False
    opt_tlb: bool = False
    #: CPUs whose pagevecs a scoped drain covers (the app's cores).
    prep_scope_cpus: int = 2
    #: Retry bound before a transactional copy falls back to sync.
    async_retry_limit: int = 3


#: Cost of the kernel trap / syscall entry for a migration call.
TRAP_CYCLES = 600.0

#: Precomputed phase-key strings (enum ``.value`` lookups were hot).
_PREP_KEY = MigrationPhase.PREP.value
_TRAP_KEY = MigrationPhase.TRAP.value
_UNMAP_KEY = MigrationPhase.UNMAP.value
_SHOOTDOWN_KEY = MigrationPhase.SHOOTDOWN.value
_COPY_KEY = MigrationPhase.COPY.value
_REMAP_KEY = MigrationPhase.REMAP.value

# How a moving page's step of the sequential loop ended.  Each indexes
# the per-kind tables below.
_NO_FRAME = 0  # destination tier had no free frame
_REMAP = 1  # demoted onto its retained twin, no copy
_SYNC = 2  # blocking copy
_TXN = 3  # transactional copy, committed after zero or more retries
_FALLBACK = 4  # transactional copy gave up and copied blocking
_ABORTED = 5  # injected fault: blocking copy aborted half way
_LOST = 6  # injected fault: background copy dropped before commit

#: outcomes by code, and each step kind's code (a committed _TXN with
#: retries is RETRIED)
_OUTCOMES = np.array(list(MigrationOutcome), dtype=object)
_SUCCESS_CODE, _RETRIED_CODE, _FALLBACK_CODE, _FAILED_CODE = range(4)
_OUTCOME_CODE = np.array(
    [_FAILED_CODE, _SUCCESS_CODE, _SUCCESS_CODE, _SUCCESS_CODE, _FALLBACK_CODE, _FAILED_CODE, _FAILED_CODE],
    dtype=np.int8,
)
#: steps that committed a move
_MOVED = np.array([False, True, True, True, True, False, False])
#: steps that ran the unmap → shootdown → [copy] → remap window
_WINDOWED = np.array([False, True, True, True, True, True, False])
#: steps whose window includes a copy
_WINDOW_COPIES = np.array([False, False, True, False, True, True, False])
#: charges in each step's window: unmap, shootdown, [copy], remap
_WINDOW_CHARGES = np.array([0, 3, 4, 3, 4, 4, 0])
#: copies each step makes before its window, besides one per retry (a
#: committed transaction's last try, a lost background copy)
_COPIES_FIRST = np.array([0, 0, 0, 1, 0, 0, 1])
#: the running cycle values :meth:`MigrationEngine._charge` folds, by row
_TOTAL_ROW, _UNMAP_ROW, _SHOOTDOWN_ROW, _COPY_ROW, _REMAP_ROW, _STALL_ROW = range(6)


def trace_shootdown(vpn: int, n_targets: int, process_wide: bool, ipi_cycles: int) -> None:
    """Record one delivered shootdown as an event (callers check
    ``tracer.enabled`` first)."""
    get_tracer().emit(
        EventKind.TLB_SHOOTDOWN,
        "shootdown",
        args={
            "vpn": vpn,
            "n_targets": n_targets,
            "process_wide": process_wide,
            "ipi_cycles": ipi_cycles,
        },
    )


class MigrationEngine:
    """Executes migrations for one process against shared hardware."""

    def __init__(
        self,
        machine: Machine,
        allocator: FrameAllocator,
        space: AddressSpace,
        lru: LruSubsystem,
        *,
        flags: OptimizationFlags | None = None,
        thread_core_map: dict[int, int],
        shadow: ShadowTracker | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.machine = machine
        self.allocator = allocator
        self.space = space
        self.lru = lru
        self.costs = MigrationCostModel()
        self.flags = flags if flags is not None else OptimizationFlags()
        self.thread_core_map = thread_core_map
        self.shadow = shadow
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.stats = MigrationStats()
        self._tracer = get_tracer()
        self._store = allocator.store
        # Per-page cost constants.  Recomputing the batch formulas for
        # one page every call produced the same floats (the models are
        # pure), so hoisting them preserves bit-identical accounting.
        self._fixed1 = self.costs.batch_fixed_cycles(1)
        self._unmap1 = self._fixed1 * 0.55
        self._remap1 = self._fixed1 * 0.45
        self._copy1 = self.costs.batch_copy_cycles(1)
        self._half_copy1 = self._copy1 * 0.5
        #: the copy charged inside each step kind's window (0.0: none)
        self._window_copy = np.array(
            [0.0, 0.0, self._copy1, 0.0, self._copy1, self._half_copy1, 0.0]
        )
        self._prep_cost = (
            self.costs.prep_opt_cycles(self.flags.prep_scope_cpus)
            if self.flags.opt_prep
            else self.costs.prep_cycles(machine.cpu.n_cores)
        )
        #: one page's TLB-coherence price, by IPI target count
        self._tlb_by_targets: list[float] = []
        # Shootdown scope.  A private page's depends only on the (fixed)
        # thread→core pinning: one target when its owner has a core.
        self._private_targets = np.zeros(pte_mod.PTE_SHARED_TID + 1, dtype=np.int64)
        for tid in thread_core_map:
            if 0 <= tid < pte_mod.PTE_SHARED_TID:
                self._private_targets[tid] = 1
        # A shared page's depends on its leaf's linked tids, which only
        # ever grow, so a (len, cores) pair detects staleness;
        # process-wide scope likewise keys on thread count.
        self._shared_scope_cache: dict[int, tuple[int, tuple[int, ...]]] = {}
        self._pw_scope_cache: tuple[int, tuple[int, ...]] | None = None
        #: scenario-attached fault source; any object with
        #: ``roll(kind: FaultKind, pid: int, vpn: int) -> bool``.  None
        #: (the default) means the fault paths are completely inert —
        #: no RNG draws happen, so fault-free runs are bit-identical to
        #: runs of builds without fault injection.
        self.fault_injector = None

    # -- phase helpers -------------------------------------------------------

    def _charge_key(self, key: str, cycles: float) -> None:
        """Charge a batch-level phase cost (trap, prep)."""
        st = self.stats
        st.phase_cycles[key] += cycles
        st.total_cycles += cycles
        if self._tracer.enabled:
            self._trace_phase(key, cycles)

    def _trace_phase(self, key: str, cycles: float) -> None:
        """Emit one phase charge as an event (tracing on).

        The tracer's cycle clock advances by the charge so phase events
        and spans nest on the deterministic simulated timeline.
        """
        tracer = self._tracer
        pid = self.space.process.pid
        tracer.emit(
            EventKind.MIGRATION_PHASE,
            key,
            pid=pid,
            dur=cycles,
            args={"phase": key, "cycles": cycles},
        )
        tracer.advance(cycles)

    def _trace_step(
        self, vpn: int, kind: int, retries: int, n_targets: int, ipi_cycles: int,
        tlb_cycles: float, process_wide: bool,
    ) -> None:
        """Emit one moving page's phase charges (tracing on), in the order
        the page was charged: its transactional copy attempts, then its
        unmap → shootdown → [copy] → remap window."""
        phase = self._trace_phase
        if kind == _LOST:
            phase(_COPY_KEY, self._copy1)
            return
        # A committed transaction copied once per retry plus once; a
        # fallback once per retry (its last try is the window's copy).
        for _ in range(retries + 1 if kind == _TXN else retries):
            phase(_COPY_KEY, self._copy1)
        phase(_UNMAP_KEY, self._unmap1)
        trace_shootdown(vpn, n_targets, process_wide, ipi_cycles)
        phase(_SHOOTDOWN_KEY, tlb_cycles)
        if _WINDOW_COPIES[kind]:
            phase(_COPY_KEY, float(self._window_copy[kind]))
        phase(_REMAP_KEY, self._remap1)

    def _prepare(self, n_pages: int) -> float:
        """Phase 0: LRU drain + isolation (the Fig. 2 'preparation')."""
        if self.flags.opt_prep:
            scope = list(range(min(self.flags.prep_scope_cpus, self.machine.cpu.n_cores)))
            self.lru.drain(scope)
        else:
            self.lru.drain(None)
        return self._prep_cost

    def _leaf_cores(self, repl, vpn: int) -> tuple[int, ...]:
        """Cores that may cache a shared ``vpn``'s translation: those of
        the threads linked to its covering leaf, none when ``vpn`` is
        unmapped.  Threads outside ``thread_core_map`` are skipped."""
        flat = repl.flat
        i = vpn - flat.base
        if i < 0 or i >= flat.pfn.size or flat.pfn[i] < 0:
            return ()
        base = vpn >> LEVEL_BITS
        tids = repl._leaf_tids.get(base)
        if not tids:
            return ()
        entry = self._shared_scope_cache.get(base)
        if entry is not None and entry[0] == len(tids):
            return entry[1]
        tcm = self.thread_core_map
        cores = tuple(sorted({tcm[t] for t in tids if t in tcm}))
        self._shared_scope_cache[base] = (len(tids), cores)
        return cores

    def _process_wide_cores(self, repl) -> tuple[int, ...]:
        """Every core running any thread of the process."""
        tids = repl._tids
        tcm = self.thread_core_map
        entry = self._pw_scope_cache
        if entry is not None and entry[0] == len(tids):
            return entry[1]
        cores = tuple(sorted({tcm[t] for t in tids if t in tcm}))
        self._pw_scope_cache = (len(tids), cores)
        return cores

    def _targets(self, repl, opt_tlb: bool, vpns: np.ndarray, idx: np.ndarray) -> np.ndarray:
        """IPI target count of each mapped page's shootdown.

        With ``opt_tlb``: one for a private page whose owner has a core,
        and for a shared page the cores its leaf's linked threads run
        on, looked up once per leaf through a mapped vpn of it.
        Without: every core of the process.  The page table is written
        only at apply time, so no move changes a later move's scope.
        """
        if not opt_tlb:
            return np.full(vpns.size, len(self._process_wide_cores(repl)), dtype=np.int64)
        owners = repl.flat.owner[idx]
        n_targets = self._private_targets[owners]
        shared = np.flatnonzero(owners == pte_mod.PTE_SHARED_TID)
        if shared.size:
            s_vpns = vpns[shared]
            leaves = (s_vpns >> LEVEL_BITS).tolist()
            # Every moving vpn is mapped, so any can stand for its leaf.
            stand_in = dict(zip(leaves, s_vpns.tolist()))
            per_leaf = {leaf: len(self._leaf_cores(repl, v)) for leaf, v in stand_in.items()}
            n_targets[shared] = [per_leaf[leaf] for leaf in leaves]
        return n_targets

    def _tlb_cycles(self, n_targets: np.ndarray) -> np.ndarray:
        """One page's TLB-coherence price for each target count (an
        empty scope still pays one flush round)."""
        table = self._tlb_by_targets
        top = int(n_targets.max()) if n_targets.size else 0
        while len(table) <= top:
            table.append(self.costs.batch_tlb_cycles(1, len(table) or 1))
        return np.array(table)[n_targets]

    # -- public API -----------------------------------------------------------

    def migrate(self, request: MigrationRequest) -> MigrationOutcome:
        """Migrate a single page through the five phases."""
        outcomes = self.migrate_batch([request])
        return outcomes[0]

    def migrate_batch(self, requests: MigrationBatch | list[MigrationRequest]) -> list[MigrationOutcome]:
        """Migrate a batch, in order; preparation is paid once per call,
        as in ``migrate_pages()``.  Returns one outcome per move.

        The store, page-table and shadow-table writes are deferred to
        grouped scatters, which needs each move to act on rows no other
        move writes: sources are distinct pre-batch mappings and
        destinations distinct pops, provided no vpn repeats — so a batch
        that names a vpn twice is rejected.  The one overlap — a frame
        freed by an earlier move and popped by a later one — is handled
        by applying the detach scatter before the destination scatters,
        and the twin drop before the twin retain.
        """
        batch = requests if isinstance(requests, MigrationBatch) else MigrationBatch.of(requests)
        n = len(batch)
        if n == 0:
            return []
        vpns = batch.vpns
        if n > 1:
            srt = np.sort(vpns)
            if bool((srt[1:] == srt[:-1]).any()):
                raise ValueError("migrate_batch: a vpn appears more than once in the batch")

        st = self.stats
        tracer = self._tracer
        trace = tracer.enabled
        repl = self.space.process.repl
        flat = repl.flat
        store = self._store
        shadow = self.shadow
        opt_tlb = self.flags.opt_tlb and repl.enabled

        # Translate, and keep the pages that move: mapped, and not
        # already on their destination tier.
        idx = vpns - flat.base
        inside = (idx >= 0) & (idx < flat.pfn.size)
        if bool(inside.all()):
            src = flat.pfn[idx]
        else:
            src = np.full(n, -1, dtype=np.int64)
            src[inside] = flat.pfn[idx[inside]]
        mapped = src >= 0
        movers = np.flatnonzero(mapped & ((src >= store.fast_frames) != (batch.dest_tiers == 1)))
        nm = movers.size
        if nm == n:
            movers = slice(None)  # the usual batch: every page moves, so take views
        m_idx = idx[movers]
        m_vpn = vpns[movers]
        m_src = src[movers]
        m_dt = batch.dest_tiers[movers]
        m_val = flat.value[m_idx]

        # A retained twin is read at its source only: sources are
        # pre-batch mappings, and twins are written only at destinations.
        # Every demotion of a shadowed page drops the twin: a clean page
        # remaps onto it (unless a poison fault discards it), a dirty one
        # has diverged from it.
        twins = np.full(nm, -1, dtype=np.int64)
        if shadow is not None:
            demote = m_dt == 1
            twins[demote] = shadow.twins(m_src[demote])
        shadowed = twins >= 0
        dirty = (m_val & pte_mod.PTE_DIRTY) != 0
        remap = shadowed & ~dirty

        n_targets = self._targets(repl, opt_tlb, m_vpn, m_idx)
        tlb = self._tlb_cycles(n_targets)
        lam = batch.access_rates[movers] * batch.write_fractions[movers] / 1_000.0
        # The chance a copy window is written to; -1 where the rate λ is
        # 0 (the page is not written), so no dirty draw is made at all.
        p_dirty = np.where(lam > 0.0, 1.0 - np.exp(-lam * self._copy1), -1.0)

        # -- the sequential loop ---------------------------------------
        kinds = [_NO_FRAME] * nm
        dests = [-1] * nm
        retries = [0] * nm
        poisoned: list[int] = []
        free_lists = (self.allocator.tiers[0].free_list, self.allocator.tiers[1].free_list)
        append_fast = free_lists[0].append
        keep_twins = shadow is not None
        inj = self.fault_injector
        roll = self._roll_fault
        rng_random = self.rng.random
        limit = self.flags.async_retry_limit
        m_pid = batch.pids[movers]
        src_l = m_src.tolist()
        vpn_l = m_vpn.tolist()
        pid_l = m_pid.tolist()
        if trace:
            n_targets_l = n_targets.tolist()
            ipi_l = self.machine.cpu.ipi_round_cycles(n_targets).tolist()
            tlb_l = tlb.tolist()
        with tracer.span("migrate_batch", pid=self.space.process.pid, pages=n):
            self._charge_key(_TRAP_KEY, TRAP_CYCLES)
            self._charge_key(_PREP_KEY, self._prepare(n))
            for j, (s, dt, rm, sy, pd) in enumerate(
                zip(src_l, m_dt.tolist(), remap.tolist(), batch.sync[movers].tolist(), p_dirty.tolist())
            ):
                if rm:
                    if inj is None or not roll(FaultKind.POISONED_SHADOW, pid_l[j], vpn_l[j], dt):
                        append_fast(s)
                        kinds[j] = _REMAP
                        if trace:
                            self._trace_step(vpn_l[j], _REMAP, 0, n_targets_l[j], ipi_l[j], tlb_l[j], not opt_tlb)
                        continue
                    # The twin is corrupt: free it at once (a later move
                    # may pop it) and demote by a full copy.
                    poisoned.append(j)
                    self.allocator.free(int(twins[j]))
                free_list = free_lists[dt]
                try:
                    d = free_list.popleft()
                except IndexError:
                    continue  # _NO_FRAME
                dests[j] = d
                if inj is not None and roll(
                    FaultKind.ABORTED_SYNC if sy else FaultKind.LOST_ASYNC, pid_l[j], vpn_l[j], dt
                ):
                    # The destination was popped but never bound: its row
                    # still reads free, so putting it back is the whole
                    # unwind.
                    free_list.append(d)
                    kind = _ABORTED if sy else _LOST
                else:
                    if sy:
                        kind = _SYNC
                    elif pd < 0.0:
                        kind = _TXN
                    else:
                        # A write inside the copy window (Poisson) aborts
                        # and retries the copy, up to the limit.
                        r = 0
                        while rng_random() < pd:
                            r += 1
                            if r > limit:
                                break
                        retries[j] = r
                        kind = _FALLBACK if r > limit else _TXN
                    if dt or not keep_twins:
                        free_lists[1 - dt].append(s)
                kinds[j] = kind
                if trace:
                    self._trace_step(vpn_l[j], kind, retries[j], n_targets_l[j], ipi_l[j], tlb_l[j], not opt_tlb)

        kind = np.array(kinds, dtype=np.intp)
        n_retries = np.array(retries, dtype=np.int64)
        dest = np.array(dests, dtype=np.int64)
        moved = _MOVED[kind]
        self._charge(kind, n_retries, tlb, n_targets)
        # Counters.  A page that did not move failed, unless it was
        # already on its destination tier.
        n_moved = int(np.count_nonzero(moved))
        n_promoted = int(np.count_nonzero(moved & (m_dt == 0)))
        st.pages_moved += n_moved
        st.promotions += n_promoted
        st.demotions += n_moved - n_promoted
        st.failures += n - n_moved - (int(np.count_nonzero(mapped)) - nm)
        st.retries += int(n_retries.sum())
        st.sync_fallbacks += kinds.count(_FALLBACK)
        st.shadow_remaps += kinds.count(_REMAP)
        st.migrations += 1

        code = np.where(mapped, _SUCCESS_CODE, _FAILED_CODE).astype(np.int8)
        step_code = _OUTCOME_CODE[kind]
        step_code[(kind == _TXN) & (n_retries > 0)] = _RETRIED_CODE
        code[movers] = step_code
        outcomes = _OUTCOMES[code].tolist()

        # -- apply deferred writes ---------------------------------------
        # Replay the growth the pops would have made one at a time.
        popped = dest[dest >= 0]
        beyond = popped >= store.capacity
        while beyond.any():
            store.ensure(int(popped[int(np.argmax(beyond))]) + 1)
            beyond = popped >= store.capacity
        remapped = kind == _REMAP
        copied = moved & ~remapped
        keep = copied & (m_dt == 0) if keep_twins else np.zeros(nm, dtype=bool)
        # All source rows are pristine pre-batch rows (a frame freed
        # in-batch can only be popped as a destination, never read as a
        # source), so gather the carried epoch counters first, apply the
        # detach scatter, then rebuild destination rows — which resolves
        # freed-then-popped frames to their final (bound) row.  A
        # remap-demotion's twin keeps its own counters.
        if moved.any():
            c_src = m_src[copied]
            c_dst = dest[copied]
            g_er = store.epoch_reads[c_src]
            g_ew = store.epoch_writes[c_src]
            detached = m_src[remapped | (copied & ~keep)]
            store.pid[detached] = NONE_SENTINEL
            store.vpn[detached] = NONE_SENTINEL
            store.state[detached] = STATE_FREE
            store.epoch_reads[detached] = 0
            store.epoch_writes[detached] = 0
            store.touched[detached] = False
            store.in_free_list[detached] = True
            # Every moved page's new frame: its twin or its copy.
            new_pfn = np.where(remapped, twins, dest)[moved]
            store.pid[new_pfn] = m_pid[moved]
            store.vpn[new_pfn] = m_vpn[moved]
            store.state[new_pfn] = STATE_MAPPED
            store.epoch_reads[c_dst] = g_er
            store.epoch_writes[c_dst] = g_ew
            store.touched[c_dst] = (g_er != 0) | (g_ew != 0)
            store.in_free_list[c_dst] = False
            store.state[m_src[keep]] = STATE_SHADOW
            value = pte_mod.pte_with_pfn(m_val[moved], new_pfn)
            value &= np.where(remapped[moved], ~pte_mod.PTE_SHADOW, ~pte_mod.PTE_DIRTY)
            value[keep[moved]] |= pte_mod.PTE_SHADOW
            pidx = m_idx[moved]
            flat.pfn[pidx] = new_pfn
            flat.owner[pidx] = pte_mod.pte_tid(value)
            flat.dirty[pidx] = (value & pte_mod.PTE_DIRTY) != 0
            flat.value[pidx] = value
        if keep_twins:
            # Drop before retain: a promotion may land on a fast frame an
            # earlier demotion of this batch freed along with its twin.
            ss = shadow.stats
            if shadowed.any():
                shadow.drop(m_src[shadowed])
                ss.remap_demotions += int(np.count_nonzero(remapped))
                ss.invalidated_by_write += int(np.count_nonzero(shadowed & dirty))
                ss.poisoned += len(poisoned)
            if keep.any():
                shadow.retain(dest[keep], m_src[keep])
        return outcomes

    def _charge(self, kind: np.ndarray, retries: np.ndarray, tlb: np.ndarray, n_targets: np.ndarray) -> None:
        """Charge the moving pages' cycles and deliver their IPIs.

        Each page's charges run in the order the loop made them: its
        transactional copies (a lost copy is one), then, if it ran one,
        its window: unmap, shootdown, [copy], remap.  ``total_cycles``
        takes every charge and each phase bucket its own, and
        ``stall_cycles`` each window's shootdown plus copy, all as
        sequential adds: one row per running value, one column per
        charge in charge order, holding the charge where the value takes
        it and +0.0 elsewhere (which leaves a non-negative sum bit for
        bit unchanged), folded by one ``np.add.accumulate`` along the
        rows.
        """
        st = self.stats
        pc = st.phase_cycles
        copies_first = _COPIES_FIRST[kind] + retries
        per_page = copies_first + _WINDOW_CHARGES[kind]
        ends = np.cumsum(per_page)
        n_charges = int(ends[-1]) if ends.size else 0
        if not n_charges:
            return
        w = np.flatnonzero(_WINDOWED[kind])
        w_kind = kind[w]
        w_tlb = tlb[w]
        # Columns are 1-based: column 0 holds the running values.
        unmap_at = (ends - per_page + copies_first)[w] + 1
        remap_at = unmap_at + 2 + _WINDOW_COPIES[w_kind]
        charges = np.full(n_charges + 1, self._copy1)
        bucket = np.full(n_charges + 1, _COPY_ROW)
        charges[unmap_at] = self._unmap1
        bucket[unmap_at] = _UNMAP_ROW
        charges[unmap_at + 1] = w_tlb
        bucket[unmap_at + 1] = _SHOOTDOWN_ROW
        charges[remap_at] = self._remap1
        bucket[remap_at] = _REMAP_ROW
        aborted = w_kind == _ABORTED
        if aborted.any():
            charges[unmap_at[aborted] + 2] = self._half_copy1
        rows = np.zeros((6, n_charges + 1))
        rows[:, 0] = (
            st.total_cycles, pc[_UNMAP_KEY], pc[_SHOOTDOWN_KEY], pc[_COPY_KEY], pc[_REMAP_KEY],
            st.stall_cycles,
        )
        rows[_TOTAL_ROW, 1:] = charges[1:]
        rows[bucket[1:], np.arange(1, n_charges + 1)] = charges[1:]
        rows[_STALL_ROW, unmap_at] = w_tlb + self._window_copy[w_kind]
        (
            st.total_cycles, pc[_UNMAP_KEY], pc[_SHOOTDOWN_KEY], pc[_COPY_KEY], pc[_REMAP_KEY],
            st.stall_cycles,
        ) = np.add.accumulate(rows, axis=1)[:, -1].tolist()
        self.machine.cpu.deliver_ipi_rounds(n_targets[w])

    # -- injected faults ---------------------------------------------------------

    def _roll_fault(self, kind: FaultKind, pid: int, vpn: int, dest_tier: int) -> bool:
        """Ask the attached injector whether this migration faults.

        With no injector attached this is a pure branch — no RNG state
        is consumed, preserving bit-identical fault-free runs.
        """
        inj = self.fault_injector
        if inj is None or not inj.roll(kind, pid=pid, vpn=vpn):
            return False
        self.stats.faults_injected[kind.value] = (
            self.stats.faults_injected.get(kind.value, 0) + 1
        )
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.FAULT_INJECTED,
                kind.value,
                pid=pid,
                args={"kind": kind.value, "vpn": vpn, "dest_tier": dest_tier},
            )
        return True
