"""``migrate_batch`` against the per-page loop it replaced.

:func:`reference_migrate_batch` is the executor as one sequential loop
over pages: each page resolves its shootdown scope, delivers its IPIs,
charges its phases with running float adds and keeps or consumes its
twin, one at a time, in page order.  The array executor must leave
exactly the state it leaves, the way ``populate`` is pinned against the
``fault`` loop.  Two identical worlds take the same random batches, one
through each executor, and are compared whole after every batch:
outcomes, stats (floats exactly), free lists in order, every store
column, the page table, the twin table, IPI stats, injector records,
the engine's RNG state and the traced event list.
"""

import numpy as np
import pytest

from repro.machine.platform import Machine
from repro.mm import pte as pte_mod
from repro.mm.address_space import AddressSpace
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.lru import LruSubsystem
from repro.mm.migration import (
    TRAP_CYCLES,
    FaultKind,
    MigrationBatch,
    MigrationEngine,
    MigrationOutcome,
    MigrationRequest,
    OptimizationFlags,
    trace_shootdown,
)
from repro.mm.page_store import STATE_MAPPED, STATE_SHADOW
from repro.mm.replication import LEVEL_BITS
from repro.mm.shadow import ShadowTracker
from repro.obs.trace import get_tracer
from repro.scenario.faults import FaultInjector
from tests.conftest import make_process, small_machine_config

FAST, SLOW = 40, 72
N_THREADS = 6
#: tid 5 runs on no core: its links must not widen a scope
CORE_MAP = {0: 0, 1: 1, 2: 2, 3: 3, 4: 0}


# -- the reference -------------------------------------------------------------


def _scope(engine: MigrationEngine, repl, vpn: int) -> tuple[int, ...]:
    """The cores that may cache ``vpn``'s translation, looked up per page."""
    tcm = engine.thread_core_map
    flat = repl.flat
    i = vpn - flat.base
    if i < 0 or i >= flat.pfn.size or flat.pfn[i] < 0:
        return ()
    owner = int(flat.owner[i])
    if owner != pte_mod.PTE_SHARED_TID:
        return (tcm[owner],) if owner in tcm else ()
    tids = repl._leaf_tids.get(vpn >> LEVEL_BITS, ())
    return tuple(sorted({tcm[t] for t in tids if t in tcm}))


def _twin(shadow: ShadowTracker, fast_pfn: int) -> int:
    return int(shadow.twins(np.array([fast_pfn], dtype=np.int64))[0])


def reference_migrate_batch(engine: MigrationEngine, requests: list[MigrationRequest]) -> list[MigrationOutcome]:
    """The per-page executor: every effect of each page, in page order."""
    if not requests:
        return []
    n = len(requests)
    vpns = [r.vpn for r in requests]
    if len(set(vpns)) != n:
        raise ValueError("migrate_batch: a vpn appears more than once in the batch")
    st = engine.stats
    tracer = engine._tracer
    trace = tracer.enabled
    inj = engine.fault_injector
    repl = engine.space.process.repl
    flat = repl.flat
    store = engine._store
    cpu = engine.machine.cpu
    fast_frames = store.fast_frames
    shadow = engine.shadow
    tiers = engine.allocator.tiers
    opt_tlb = engine.flags.opt_tlb and repl.enabled
    retry_limit = engine.flags.async_retry_limit
    phase = engine._trace_phase
    P = pte_mod

    def roll(kind, req):
        return inj is not None and engine._roll_fault(kind, req.pid, req.vpn, req.dest_tier)

    pfn_l, val_l = [], []
    for vpn in vpns:
        i = vpn - flat.base
        inside = 0 <= i < flat.pfn.size
        pfn_l.append(int(flat.pfn[i]) if inside else -1)
        val_l.append(int(flat.value[i]) if inside else 0)

    with tracer.span("migrate_batch", pid=engine.space.process.pid, pages=n):
        engine._charge_key("trap", TRAP_CYCLES)
        engine._charge_key("prep", engine._prepare(n))
        pc = st.phase_cycles
        acc = {"unmap": pc["unmap"], "shootdown": pc["shootdown"], "copy": pc["copy"],
               "remap": pc["remap"], "total": st.total_cycles, "stall": st.stall_cycles}

        def charge(key, cycles):
            acc[key] += cycles
            acc["total"] += cycles
            if trace:
                phase(key, cycles)

        def window(vpn, copy):
            charge("unmap", engine._unmap1)
            cores = _scope(engine, repl, vpn) if opt_tlb else engine._process_wide_cores(repl)
            ipi = int(cpu.ipi_round_cycles(np.array([len(cores)]))[0])
            cpu.deliver_ipi_rounds(np.array([len(cores)]))
            if trace:
                trace_shootdown(vpn, len(cores), not opt_tlb, ipi)
            tlb = engine.costs.batch_tlb_cycles(1, len(cores) or 1)
            charge("shootdown", tlb)
            blocked = tlb
            if copy is not None:
                charge("copy", copy)
                blocked = tlb + copy
            charge("remap", engine._remap1)
            return blocked

        fin, remaps, keep_src, det_src, pt = [], [], [], [], []
        outcomes = []
        c1 = engine._copy1
        for req, vpn, src, value in zip(requests, vpns, pfn_l, val_l):
            if src < 0:
                st.failures += 1
                outcomes.append(MigrationOutcome.FAILED)
                continue
            dest_tier = req.dest_tier
            src_tier = 0 if src < fast_frames else 1
            if src_tier == dest_tier:
                outcomes.append(MigrationOutcome.SUCCESS)
                continue
            twin = _twin(shadow, src) if shadow is not None and dest_tier == 1 else -1
            if twin >= 0 and P.pte_is_dirty(value):
                shadow.drop(np.array([src]))
                shadow.stats.invalidated_by_write += 1
                twin = -1
            if twin >= 0:
                if roll(FaultKind.POISONED_SHADOW, req):
                    shadow.drop(np.array([src]))
                    shadow.stats.poisoned += 1
                    engine.allocator.free(twin)
                else:
                    acc["stall"] += window(vpn, None)
                    nv = P.pte_clear_flag(P.pte_with_pfn(value, twin), P.PTE_SHADOW)
                    pt.append((vpn, twin, nv))
                    remaps.append((vpn, req.pid, twin))
                    shadow.drop(np.array([src]))
                    shadow.stats.remap_demotions += 1
                    tiers[src_tier].free_list.append(src)
                    det_src.append(src)
                    st.demotions += 1
                    st.pages_moved += 1
                    st.shadow_remaps += 1
                    outcomes.append(MigrationOutcome.SUCCESS)
                    continue
            dest_list = tiers[dest_tier].free_list
            if not dest_list:
                st.failures += 1
                outcomes.append(MigrationOutcome.FAILED)
                continue
            dest = dest_list.popleft()
            if dest >= store.capacity:
                store.ensure(dest + 1)
            if roll(FaultKind.ABORTED_SYNC if req.sync else FaultKind.LOST_ASYNC, req):
                if req.sync:
                    acc["stall"] += window(vpn, engine._half_copy1)
                else:
                    charge("copy", c1)
                dest_list.append(dest)
                st.failures += 1
                outcomes.append(MigrationOutcome.FAILED)
                continue
            if req.sync:
                acc["stall"] += window(vpn, c1)
                outcome = MigrationOutcome.SUCCESS
            else:
                lam = req.access_rate_per_kcycle * req.write_fraction / 1_000.0
                p_dirty = 1.0 - float(np.exp(-lam * c1)) if lam > 0.0 else 0.0
                retries = 0
                outcome = MigrationOutcome.SUCCESS
                while True:
                    charge("copy", c1)
                    if lam <= 0.0 or not (engine.rng.random() < p_dirty):
                        break
                    retries += 1
                    st.retries += 1
                    if retries > retry_limit:
                        st.sync_fallbacks += 1
                        acc["stall"] += window(vpn, c1)
                        outcome = MigrationOutcome.FELL_BACK_SYNC
                        break
                    outcome = MigrationOutcome.RETRIED
                if outcome is not MigrationOutcome.FELL_BACK_SYNC:
                    acc["stall"] += window(vpn, None)
            keep = shadow is not None and dest_tier == 0 and src_tier == 1
            nv = P.pte_clear_flag(P.pte_with_pfn(value, dest), P.PTE_DIRTY)
            if keep:
                nv = P.pte_set_flag(nv, P.PTE_SHADOW)
                shadow.retain(np.array([dest]), np.array([src]))
                keep_src.append(src)
            else:
                tiers[src_tier].free_list.append(src)
                det_src.append(src)
            pt.append((vpn, dest, nv))
            fin.append((vpn, req.pid, src, dest))
            st.pages_moved += 1
            if dest_tier == 0:
                st.promotions += 1
            else:
                st.demotions += 1
            outcomes.append(outcome)
        for key in ("unmap", "shootdown", "copy", "remap"):
            pc[key] = acc[key]
        st.total_cycles = acc["total"]
        st.stall_cycles = acc["stall"]
        st.migrations += 1

    carried = [(int(store.epoch_reads[s]), int(store.epoch_writes[s])) for _, _, s, _ in fin]
    for s in det_src:
        store.detach_row(s)
        store.in_free_list[s] = True
    for vpn, pid, twin in remaps:
        store.pid[twin], store.vpn[twin], store.state[twin] = pid, vpn, STATE_MAPPED
    for (vpn, pid, _, dest), (er, ew) in zip(fin, carried):
        store.pid[dest], store.vpn[dest], store.state[dest] = pid, vpn, STATE_MAPPED
        store.epoch_reads[dest], store.epoch_writes[dest] = er, ew
        store.touched[dest] = er != 0 or ew != 0
        store.in_free_list[dest] = False
    for s in keep_src:
        store.state[s] = STATE_SHADOW
    for vpn, pfn, nv in pt:
        i = vpn - flat.base
        flat.pfn[i], flat.owner[i], flat.dirty[i], flat.value[i] = pfn, P.pte_tid(nv), P.pte_is_dirty(nv), nv
    return outcomes


# -- two identical worlds ------------------------------------------------------


def build_world(seed: int, *, opt_tlb: bool, replication: bool, shadow: bool, faults: dict | None):
    """A process whose pages sit in three leaves, none of which maps its
    base vpn, a third of them shared, on a small machine."""
    rng = np.random.default_rng(seed)
    machine = Machine(small_machine_config(n_cores=4, fast_pages=FAST, slow_pages=SLOW))
    alloc = FrameAllocator(fast_frames=FAST, slow_frames=SLOW)
    proc = make_process(n_threads=N_THREADS, replication=replication)
    space = AddressSpace(proc, alloc)
    vma = proc.mmap(3 * 512 - 40)
    offsets = np.sort(rng.choice(np.setdiff1d(np.arange(vma.n_pages), [0, 512, 1024]), 80, replace=False))
    for off in offsets.tolist():
        space.fault(vma.start_vpn + off, tid=int(rng.integers(N_THREADS)), prefer_tier=int(rng.random() < 0.7))
    if replication:
        for off in offsets[rng.random(offsets.size) < 0.35].tolist():
            vpn = vma.start_vpn + off
            owner = pte_mod.pte_tid(proc.repl.lookup(vpn))
            proc.repl.note_access(vpn, (owner + 1 + int(rng.integers(N_THREADS - 1))) % N_THREADS)
    # Some epoch counters to carry.
    live = alloc.store.state == STATE_MAPPED
    alloc.store.epoch_reads[live] = rng.integers(0, 3, int(live.sum()))
    alloc.store.touched[live] = alloc.store.epoch_reads[live] > 0
    engine = MigrationEngine(
        machine, alloc, space, LruSubsystem(n_cpus=machine.cpu.n_cores),
        flags=OptimizationFlags(opt_tlb=opt_tlb, opt_prep=bool(seed % 2)),
        thread_core_map=dict(CORE_MAP),
        shadow=ShadowTracker() if shadow else None,
        rng=np.random.default_rng(seed + 1),
    )
    if faults is not None:
        engine.fault_injector = FaultInjector(seed=seed + 2)
        engine.fault_injector.configure(faults)
        engine.fault_injector.epoch = 0
    # Unmapped: leaf bases inside the table, the guard gap, far outside.
    unmapped = vma.start_vpn + np.array([0, 512, 1024, vma.n_pages + 3, 1 << 20])
    return engine, vma.start_vpn + offsets, unmapped


def state(engine: MigrationEngine) -> dict:
    alloc = engine.allocator
    store = alloc.store
    flat = engine.space.process.repl.flat
    st = engine.stats
    out = {
        "stats": st,
        "faults_order": list(st.faults_injected.items()),
        "free_lists": [(list(t.free_list), t.free_list.virgin_range) for t in alloc.tiers],
        "capacity": store.capacity,
        "store": {name: getattr(store, name)[: store.capacity].tolist() for name in store._COLUMNS},
        "page_table": (flat.base, flat.mapped, flat.pfn.tolist(), flat.owner.tolist(),
                       flat.dirty.tolist(), flat.value.tolist()),
        "ipi": engine.machine.cpu.ipi_stats,
        "rng": engine.rng.bit_generator.state,
        "lru": (engine.lru.drain_all_calls, engine.lru.scoped_drain_calls),
    }
    if engine.shadow is not None:
        s = engine.shadow
        out["twins"] = (s.twins(np.arange(FAST)).tolist(), len(s), s.stats)
    if engine.fault_injector is not None:
        out["injector"] = (engine.fault_injector.records, engine.fault_injector.rng.bit_generator.state)
    return out


def random_batch(rng, vpns: np.ndarray, unmapped: np.ndarray) -> list[MigrationRequest]:
    """Demotions and promotions in either order or interleaved, some
    unmapped vpns, no-ops, and write fractions high enough to retry and
    fall back."""
    n = int(rng.integers(1, 40))
    pool = np.concatenate((vpns, unmapped[rng.random(unmapped.size) < 0.3]))
    picked = rng.choice(pool, min(n, pool.size), replace=False).tolist()
    n = len(picked)
    dest = rng.integers(0, 2, n)
    order = rng.integers(3)
    if order < 2:  # all moves toward tier `order` first
        pairs = sorted(zip(dest.tolist(), picked), key=lambda pair: pair[0] != order)
        dest = np.array([d for d, _ in pairs])
        picked = [v for _, v in pairs]
    rate = rng.choice([0.0, 0.002, 0.02, 0.2], n)
    wf = rng.choice([0.0, 0.1, 0.6, 1.0], n) * rng.random(n)
    sync = rng.random(n) < 0.4
    return [
        MigrationRequest(pid=1, vpn=int(v), dest_tier=int(d), sync=bool(s), write_fraction=float(w),
                         access_rate_per_kcycle=float(r))
        for v, d, s, w, r in zip(picked, dest.tolist(), sync.tolist(), wf.tolist(), rate.tolist())
    ]


def dirty_some_shadowed(engine: MigrationEngine, rng) -> None:
    """Hand-set the dirty bit on some shadowed fast pages."""
    if engine.shadow is None:
        return
    repl = engine.space.process.repl
    flat = repl.flat
    for vpn in flat.present_vpns().tolist():
        pfn = int(flat.pfn[vpn - flat.base])
        if pfn < FAST and _twin(engine.shadow, pfn) >= 0 and rng.random() < 0.1:
            repl.update(vpn, pte_mod.pte_set_flag(repl.lookup(vpn), pte_mod.PTE_DIRTY))


def run_pair(seed: int, n_batches: int = 30, trace: bool = False, **world) -> None:
    new, vpns, unmapped = build_world(seed, **world)
    ref, _, _ = build_world(seed, **world)
    assert state(new) == state(ref)
    rng = np.random.default_rng(1000 + seed)
    tracer = get_tracer()
    try:
        for _ in range(n_batches):
            requests = random_batch(rng, vpns, unmapped)
            if trace:
                tracer.enable()
            got = new.migrate_batch(requests)
            got_events = tracer.events()
            if trace:
                tracer.enable()
            want = reference_migrate_batch(ref, requests)
            want_events = tracer.events()
            assert got == want
            assert all(type(o) is MigrationOutcome for o in got)
            assert state(new) == state(ref)
            if trace:
                assert got_events == want_events
                assert got_events
            mark = int(rng.integers(1 << 30))
            dirty_some_shadowed(new, np.random.default_rng(mark))
            dirty_some_shadowed(ref, np.random.default_rng(mark))
    finally:
        tracer.disable()
        tracer.buffer.clear()
    new.allocator.check_consistency()
    new.allocator.store.check_row_invariants()


# -- the differential tests ----------------------------------------------------

FAULTS = {"aborted_sync": 0.25, "lost_async": 0.3, "poisoned_shadow": 0.3}


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("opt_tlb", [True, False])
def test_matches_reference_with_shadowing(seed, opt_tlb):
    run_pair(seed, opt_tlb=opt_tlb, replication=True, shadow=True, faults=None)


@pytest.mark.parametrize("seed", range(4))
def test_matches_reference_under_every_fault_kind(seed):
    run_pair(seed, opt_tlb=True, replication=True, shadow=True, faults=FAULTS)


@pytest.mark.parametrize("seed", range(3))
def test_matches_reference_without_shadowing_or_replication(seed):
    run_pair(seed, opt_tlb=True, replication=False, shadow=False, faults=FAULTS)
    run_pair(seed, opt_tlb=False, replication=True, shadow=False, faults=None)


@pytest.mark.parametrize("seed", range(3))
def test_matches_reference_traced(seed):
    run_pair(seed, n_batches=12, trace=True, opt_tlb=bool(seed % 2), replication=True,
             shadow=True, faults=FAULTS)


@pytest.mark.parametrize("below", [False, True])
def test_dirty_probability_is_the_scalar_exp_bit_for_bit(below):
    """Each page's dirty draw lands exactly on its dirty probability as
    the scalar ``np.exp`` gives it (or one ulp below), so a probability
    one ulp off retries where the reference commits, or the reverse."""
    n = 600
    machine = Machine(small_machine_config(n_cores=4, fast_pages=n, slow_pages=n))
    worlds = []
    for _ in range(2):
        alloc = FrameAllocator(fast_frames=n, slow_frames=n)
        space = AddressSpace(make_process(n_threads=2), alloc)
        vma = space.process.mmap(n)
        space.populate(vma, 0, prefer_tier=1)
        worlds.append(MigrationEngine(machine, alloc, space, LruSubsystem(n_cpus=4), thread_core_map={0: 0}))
    rng = np.random.default_rng(5)
    requests = [
        MigrationRequest(pid=1, vpn=vma.start_vpn + i, dest_tier=0, sync=False,
                         write_fraction=float(w), access_rate_per_kcycle=float(r))
        for i, (w, r) in enumerate(zip(rng.random(n), rng.random(n) / 10))
    ]
    draws = []
    for r in requests:
        p = 1.0 - float(np.exp(-(r.access_rate_per_kcycle * r.write_fraction / 1_000.0) * worlds[0]._copy1))
        # One ulp below retries once, and the retry draw commits.
        draws += [float(np.nextafter(p, 0.0)), 1.0] if below else [p]
    new, ref = worlds
    new.rng, ref.rng = _Replay(draws), _Replay(draws)
    assert new.migrate_batch(requests) == reference_migrate_batch(ref, requests)
    assert new.stats == ref.stats
    assert new.stats.retries == (n if below else 0)


class _Replay:
    """An RNG stand-in that returns given draws in order."""

    def __init__(self, draws):
        self._draws = iter(draws)

    def random(self):
        return next(self._draws)


def test_batch_and_request_list_are_one_executor():
    """A MigrationBatch and the equivalent request list leave the same
    state; the batch's len() is its request count."""
    for seed in range(3):
        a, vpns, unmapped = build_world(seed, opt_tlb=True, replication=True, shadow=True, faults=FAULTS)
        b, _, _ = build_world(seed, opt_tlb=True, replication=True, shadow=True, faults=FAULTS)
        rng = np.random.default_rng(seed)
        for _ in range(10):
            requests = random_batch(rng, vpns, unmapped)
            batch = MigrationBatch.of(requests)
            assert len(batch) == len(requests)
            assert a.migrate_batch(batch) == b.migrate_batch(requests)
            assert state(a) == state(b)
