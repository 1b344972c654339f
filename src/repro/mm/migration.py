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

There is one executor, :meth:`MigrationEngine.migrate_batch`.  Every
order-sensitive effect — cost accounting, RNG draws, injected-fault
rolls and their unwinds, free-list pops and appends, shadow
bookkeeping, trace events and metrics — runs in one sequential
per-page loop; the per-frame store and page-table writes are deferred
to grouped scatters.  Tracing, metrics and fault injection only add
work inside that loop: they never select a different path.
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
        self._prep_cost = (
            self.costs.prep_opt_cycles(self.flags.prep_scope_cpus)
            if self.flags.opt_prep
            else self.costs.prep_cycles(machine.cpu.n_cores)
        )
        self._tlb1_cache: dict[int, float] = {}
        # Shootdown-scope caches.  Private scope depends only on the
        # (fixed) thread→core pinning; shared scope on a leaf's linked
        # tids, which only ever grows, so a (len, cores) pair detects
        # staleness; process-wide scope likewise keys on thread count.
        self._core_of_private: dict[int, tuple[int, ...]] = {}
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

    def _prepare(self, n_pages: int) -> float:
        """Phase 0: LRU drain + isolation (the Fig. 2 'preparation')."""
        if self.flags.opt_prep:
            scope = list(range(min(self.flags.prep_scope_cpus, self.machine.cpu.n_cores)))
            self.lru.drain(scope)
        else:
            self.lru.drain(None)
        return self._prep_cost

    def _scope_cores(self, repl, vpn: int) -> tuple[int, ...]:
        """Cores that may cache ``vpn``'s translation, via the page table:
        the owner's core for a private page, the cores of the threads
        linked to the covering leaf for a shared one, none when unmapped.
        Threads outside ``thread_core_map`` are skipped."""
        tcm = self.thread_core_map
        flat = repl.flat
        i = vpn - flat.base
        if i < 0 or i >= flat.pfn.size or flat.pfn[i] < 0:
            return ()
        owner = int(flat.owner[i])
        if owner != pte_mod.PTE_SHARED_TID:
            cached = self._core_of_private.get(owner)
            if cached is None:
                cached = (tcm[owner],) if owner in tcm else ()
                self._core_of_private[owner] = cached
            return cached
        base = vpn >> LEVEL_BITS
        tids = repl._leaf_tids.get(base)
        if not tids:
            return ()
        entry = self._shared_scope_cache.get(base)
        if entry is not None and entry[0] == len(tids):
            return entry[1]
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

    # -- public API -----------------------------------------------------------

    def migrate(self, request: MigrationRequest) -> MigrationOutcome:
        """Migrate a single page through the five phases."""
        outcomes = self.migrate_batch([request])
        return outcomes[0]

    def migrate_batch(self, requests: list[MigrationRequest]) -> list[MigrationOutcome]:
        """Migrate a batch; preparation is paid once per call, as in
        ``migrate_pages()``.

        Every order-sensitive effect — cost accounting (float adds in
        charge order), RNG draws, fault rolls, free-list pops/appends,
        shadow bookkeeping, trace events — runs in one
        sequential loop.  The per-frame stats-store and page-table
        writes are deferred and applied as grouped numpy scatters,
        which needs each move to act on rows no other move
        writes: sources are distinct pre-batch mappings and
        destinations distinct pops, provided no vpn repeats — so a
        batch that names a vpn twice is rejected.  The one overlap — a
        frame freed by an earlier move and re-allocated by a later one
        — is handled by applying the detach scatter before the
        destination-row scatters.
        """
        if not requests:
            return []
        n = len(requests)
        vpns = [r.vpn for r in requests]
        if len(set(vpns)) != n:
            raise ValueError("migrate_batch: a vpn appears more than once in the batch")

        st = self.stats
        tracer = self._tracer
        trace = tracer.enabled
        inj = self.fault_injector
        repl = self.space.process.repl
        flat = repl.flat
        store = self._store
        cpu = self.machine.cpu
        fast_frames = store.fast_frames
        shadow = self.shadow
        tiers = self.allocator.tiers
        opt_tlb = self.flags.opt_tlb and repl.enabled
        retry_limit = self.flags.async_retry_limit
        tlb_cache = self._tlb1_cache
        pte_with_pfn = pte_mod.pte_with_pfn
        pte_clear_flag = pte_mod.pte_clear_flag
        pte_set_flag = pte_mod.pte_set_flag
        pte_tid = pte_mod.pte_tid
        pte_is_dirty = pte_mod.pte_is_dirty
        PTE_DIRTY = pte_mod.PTE_DIRTY
        PTE_SHADOW = pte_mod.PTE_SHADOW
        rng_random = self.rng.random
        phase = self._trace_phase

        # One vectorized translate for the whole batch (identical to a
        # lookup() per request: the page table is only written at apply
        # time, and in-batch remaps never change the fields a later
        # move's translate or shootdown scope reads).
        if flat.pfn.size:
            idx_np = np.array(vpns, dtype=np.int64) - flat.base
            in_range = (idx_np >= 0) & (idx_np < flat.pfn.size)
            safe_idx = np.where(in_range, idx_np, 0)
            pfn_l = np.where(in_range, flat.pfn[safe_idx], -1).tolist()
            val_l = flat.value[safe_idx].tolist()
        else:
            pfn_l = [-1] * n
            val_l = [0] * n

        with tracer.span("migrate_batch", pid=self.space.process.pid, pages=n):
            self._charge_key(_TRAP_KEY, TRAP_CYCLES)
            self._charge_key(_PREP_KEY, self._prepare(n))

            # Float accumulators: locals holding the running bucket values,
            # updated with the same sequence of binary adds per-charge
            # accounting performs, written back once at the end.
            pc = st.phase_cycles
            unmap_acc = pc[_UNMAP_KEY]
            sd_acc = pc[_SHOOTDOWN_KEY]
            copy_acc = pc[_COPY_KEY]
            remap_acc = pc[_REMAP_KEY]
            total = st.total_cycles
            stall = st.stall_cycles
            u1 = self._unmap1
            r1 = self._remap1
            c1 = self._copy1

            def window(vpn: int, copy: float | None) -> float:
                """Unmap → shootdown → [copy] → remap of one page, the
                window in which its accessors block; returns that stall."""
                nonlocal unmap_acc, sd_acc, copy_acc, remap_acc, total
                unmap_acc += u1; total += u1
                if trace:
                    phase(_UNMAP_KEY, u1)
                # Phase ③: resolve scope and deliver IPIs.  The structural
                # IPI cost is folded into the model cost (the model is
                # calibrated to measurements that include it).
                cores = self._scope_cores(repl, vpn) if opt_tlb else self._process_wide_cores(repl)
                ipi_cycles = cpu.deliver_ipis(cores)
                if trace:
                    trace_shootdown(vpn, len(cores), not opt_tlb, ipi_cycles)
                n_targets = len(cores) or 1
                tlb_cycles = tlb_cache.get(n_targets)
                if tlb_cycles is None:
                    tlb_cycles = self.costs.batch_tlb_cycles(1, n_targets)
                    tlb_cache[n_targets] = tlb_cycles
                sd_acc += tlb_cycles; total += tlb_cycles
                if trace:
                    phase(_SHOOTDOWN_KEY, tlb_cycles)
                blocked = tlb_cycles
                if copy is not None:
                    copy_acc += copy; total += copy
                    if trace:
                        phase(_COPY_KEY, copy)
                    blocked = tlb_cycles + copy
                remap_acc += r1; total += r1
                if trace:
                    phase(_REMAP_KEY, r1)
                return blocked

            # Deferred scatter groups.
            fin_vpn: list[int] = []; fin_pid: list[int] = []
            fin_src: list[int] = []; fin_dest: list[int] = []
            sh_vpn: list[int] = []; sh_pid: list[int] = []; sh_dst: list[int] = []
            pt_vpn: list[int] = []; pt_pfn: list[int] = []
            pt_val: list[int] = []; pt_own: list[int] = []; pt_dirty: list[bool] = []
            keep_src: list[int] = []  # sources retained as shadow rows
            det_src: list[int] = []   # sources fully detached (freed)

            outcomes: list[MigrationOutcome] = []
            append_out = outcomes.append
            SUCCESS = MigrationOutcome.SUCCESS
            RETRIED = MigrationOutcome.RETRIED
            FELL_BACK = MigrationOutcome.FELL_BACK_SYNC
            FAILED = MigrationOutcome.FAILED

            for req, vpn, src_pfn, value in zip(requests, vpns, pfn_l, val_l):
                if src_pfn < 0:
                    st.failures += 1
                    append_out(FAILED)
                    continue
                dest_tier = req.dest_tier
                src_tier = 0 if src_pfn < fast_frames else 1
                if src_tier == dest_tier:
                    append_out(SUCCESS)
                    continue

                if (
                    shadow is not None
                    and dest_tier == 1
                    and shadow.can_remap_demote(src_pfn, dirty=pte_is_dirty(value))
                ):
                    if inj is not None and self._roll_fault(FaultKind.POISONED_SHADOW, req):
                        # The retained twin is corrupt: discard it and
                        # demote by a full copy.  The twin's row is not
                        # any move's source, so it is freed right away;
                        # a later move may pop it as its destination.
                        stale = shadow.poison(src_pfn)
                        if stale is not None:
                            self.allocator.free(stale)
                    else:
                        # Remap-only demotion onto the retained slow-tier twin.
                        shadow_pfn = shadow.shadow_of(src_pfn)
                        stall += window(vpn, None)
                        nv = pte_clear_flag(pte_with_pfn(value, shadow_pfn), PTE_SHADOW)
                        pt_vpn.append(vpn); pt_pfn.append(shadow_pfn)
                        pt_val.append(nv); pt_own.append(pte_tid(nv)); pt_dirty.append(pte_is_dirty(nv))
                        sh_vpn.append(vpn); sh_pid.append(req.pid); sh_dst.append(shadow_pfn)
                        shadow.consume(src_pfn)
                        tiers[src_tier].free_list.append(src_pfn)
                        det_src.append(src_pfn)
                        st.demotions += 1
                        st.pages_moved += 1
                        st.shadow_remaps += 1
                        append_out(SUCCESS)
                        continue

                # Allocate the destination (no fallback to the other tier).
                dest_list = tiers[dest_tier].free_list
                if not dest_list:
                    st.failures += 1
                    append_out(FAILED)
                    continue
                dest_pfn = dest_list.popleft()
                if dest_pfn >= store.capacity:
                    store.ensure(dest_pfn + 1)

                if inj is not None and self._roll_fault(
                    FaultKind.ABORTED_SYNC if req.sync else FaultKind.LOST_ASYNC, req
                ):
                    if req.sync:
                        # Aborted mid-copy: the page was unmapped and shot
                        # down and half the copy ran, all of it stall; then
                        # the PTE is restored at the unchanged source.
                        stall += window(vpn, self._half_copy1)
                    else:
                        # Dropped before commit: a full background copy
                        # wasted, no stall, the source stays mapped.
                        copy_acc += c1; total += c1
                        if trace:
                            phase(_COPY_KEY, c1)
                    # The destination was popped but never bound: no write
                    # reached its row, which still reads free (its free-list
                    # bit included, so allocator.free() would call this a
                    # double free).  Putting it back on its list is the
                    # whole unwind.
                    dest_list.append(dest_pfn)
                    st.failures += 1
                    append_out(FAILED)
                    continue

                if req.sync:
                    stall += window(vpn, c1)
                    outcome = SUCCESS
                else:
                    # Nomad-style transactional copy: the page stays mapped
                    # during the copy; a write inside the copy window
                    # (Poisson, rate λ) aborts and retries it.
                    lam = req.access_rate_per_kcycle * req.write_fraction / 1_000.0
                    p_dirty = 1.0 - float(np.exp(-lam * c1)) if lam > 0.0 else 0.0
                    retries = 0
                    outcome = SUCCESS
                    while True:
                        copy_acc += c1; total += c1
                        if trace:
                            phase(_COPY_KEY, c1)
                        if lam <= 0.0 or not (rng_random() < p_dirty):
                            break
                        retries += 1
                        st.retries += 1
                        if retries > retry_limit:
                            # Give up: take the write-blocking sync path.
                            st.sync_fallbacks += 1
                            stall += window(vpn, c1)
                            outcome = FELL_BACK
                            break
                        outcome = RETRIED
                    if outcome is not FELL_BACK:
                        # Commit: brief write-protect window, shootdown, remap.
                        stall += window(vpn, None)

                # Finalize (every non-FAILED full copy commits).
                keep_shadow = shadow is not None and dest_tier == 0 and src_tier == 1
                nv = pte_clear_flag(pte_with_pfn(value, dest_pfn), PTE_DIRTY)
                if keep_shadow:
                    nv = pte_set_flag(nv, PTE_SHADOW)
                pt_vpn.append(vpn); pt_pfn.append(dest_pfn)
                pt_val.append(nv); pt_own.append(pte_tid(nv)); pt_dirty.append(pte_is_dirty(nv))
                fin_vpn.append(vpn); fin_pid.append(req.pid)
                fin_src.append(src_pfn); fin_dest.append(dest_pfn)
                if keep_shadow:
                    shadow.retain(fast_pfn=dest_pfn, shadow_pfn=src_pfn)
                    keep_src.append(src_pfn)
                else:
                    tiers[src_tier].free_list.append(src_pfn)
                    det_src.append(src_pfn)
                st.pages_moved += 1
                if dest_tier == 0:
                    st.promotions += 1
                else:
                    st.demotions += 1
                append_out(outcome)

            pc[_UNMAP_KEY] = unmap_acc
            pc[_SHOOTDOWN_KEY] = sd_acc
            pc[_COPY_KEY] = copy_acc
            pc[_REMAP_KEY] = remap_acc
            st.total_cycles = total
            st.stall_cycles = stall
            st.migrations += 1

        # -- apply deferred writes ---------------------------------------
        # All source rows are pristine pre-batch rows (a frame freed
        # in-batch can only be re-allocated as a destination, never read
        # as a source), so gather the src-carried epoch counters first,
        # apply the detach scatter, then rebuild destination rows — which
        # resolves freed-then-reallocated frames to their final (bound)
        # row, as freeing then binding one frame at a time would.  A
        # remap-demotion's twin keeps its own counters.
        if fin_dest:
            fsrc = np.array(fin_src, dtype=np.int64)
            fdst = np.array(fin_dest, dtype=np.int64)
            g_er = store.epoch_reads[fsrc]
            g_ew = store.epoch_writes[fsrc]
        if det_src:
            d = np.array(det_src, dtype=np.int64)
            store.pid[d] = NONE_SENTINEL
            store.vpn[d] = NONE_SENTINEL
            store.state[d] = STATE_FREE
            store.epoch_reads[d] = 0
            store.epoch_writes[d] = 0
            store.touched[d] = False
            store.in_free_list[d] = True
        if sh_dst:
            sdst = np.array(sh_dst, dtype=np.int64)
            store.pid[sdst] = sh_pid
            store.vpn[sdst] = sh_vpn
            store.state[sdst] = STATE_MAPPED
        if fin_dest:
            store.pid[fdst] = fin_pid
            store.vpn[fdst] = fin_vpn
            store.state[fdst] = STATE_MAPPED
            store.epoch_reads[fdst] = g_er
            store.epoch_writes[fdst] = g_ew
            store.touched[fdst] = (g_er != 0) | (g_ew != 0)
            store.tier_id[fdst] = fdst >= fast_frames
            store.in_free_list[fdst] = False
        if keep_src:
            store.state[np.array(keep_src, dtype=np.int64)] = STATE_SHADOW
        if pt_vpn:
            pidx = np.array(pt_vpn, dtype=np.int64) - flat.base
            flat.pfn[pidx] = pt_pfn
            flat.owner[pidx] = pt_own
            flat.dirty[pidx] = pt_dirty
            flat.value[pidx] = pt_val
        return outcomes

    # -- injected faults ---------------------------------------------------------

    def _roll_fault(self, kind: FaultKind, req: MigrationRequest) -> bool:
        """Ask the attached injector whether this migration faults.

        With no injector attached this is a pure branch — no RNG state
        is consumed, preserving bit-identical fault-free runs.
        """
        inj = self.fault_injector
        if inj is None or not inj.roll(kind, pid=req.pid, vpn=req.vpn):
            return False
        self.stats.faults_injected[kind.value] = (
            self.stats.faults_injected.get(kind.value, 0) + 1
        )
        tracer = self._tracer
        if tracer.enabled:
            tracer.emit(
                EventKind.FAULT_INJECTED,
                kind.value,
                pid=req.pid,
                args={"kind": kind.value, "vpn": req.vpn, "dest_tier": req.dest_tier},
            )
        return True
