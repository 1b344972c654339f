"""The invariant oracle (DESIGN.md §fuzz).

One shared implementation of every global-consistency check the system
promises, callable from three places:

* the **scenario engine** — final teardown checks after every run (the
  asserts that used to live inline in ``ScenarioExperiment._finish_run``)
  and, under ``--check``, after every epoch;
* the **fuzzer** — :class:`InvariantOracle` attached to each generated
  run, turning silent corruption into a typed, shrinkable failure;
* the **tests** — mutation tests corrupt state deliberately and assert
  each corruption is caught with a precise diagnostic.

Every check raises :class:`InvariantViolation` carrying a stable check
id (``frame_conservation``, ``leaked_frames``, ``credit_conservation``,
``capacity_cap``, ``heat_consistency``, ``store_rows``, ``page_tables``,
``metrics_range``, ``fleet_conservation``) so the shrinker can hold the failure kind fixed
while it minimizes, and the fuzz report can aggregate by kind.

The oracle is strictly read-only: no check consumes RNG state or
mutates anything it inspects, so attaching an oracle never perturbs a
run — oracle-on and oracle-off runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.mm import pte as pte_mod
from repro.mm.frame_alloc import FrameAllocator
from repro.mm.page_store import STATE_FREE, STATE_MAPPED, PageStatsStore


class InvariantViolation(AssertionError):
    """A global invariant failed; carries a stable check id + context."""

    def __init__(
        self,
        check: str,
        message: str,
        *,
        epoch: int | None = None,
        context: dict | None = None,
    ) -> None:
        self.check = check
        self.epoch = epoch
        self.context = dict(context or {})
        self._bare_message = message
        where = f" @epoch {epoch}" if epoch is not None else ""
        super().__init__(f"[{check}]{where} {message}")

    def stamp_epoch(self, epoch: int) -> None:
        """Attach the epoch a per-epoch sweep caught this at (idempotent)."""
        if self.epoch is None:
            self.epoch = epoch
            self.args = (f"[{self.check}] @epoch {epoch} {self._bare_message}",)

    def to_dict(self) -> dict:
        """Plain-data form for fuzz reports and promoted crashers."""
        return {
            "check": self.check,
            "epoch": self.epoch,
            "message": str(self),
            "context": {k: v for k, v in sorted(self.context.items())},
        }


# -- individual checks (each usable standalone from tests) -----------------------


def check_frame_conservation(allocator: FrameAllocator) -> None:
    """Free lists, the free bitmap, and per-tier used counts all agree.

    Wraps the allocator's own cross-check and adds the store-vs-tier
    arithmetic it does not cover: the number of non-FREE frames in a
    tier's PFN span must equal that tier's ``used`` counter.
    """
    try:
        allocator.check_consistency()
    except RuntimeError as exc:
        raise InvariantViolation("frame_conservation", str(exc)) from exc
    st = allocator.store
    for tier in allocator.tiers:
        span = slice(tier.base_pfn, tier.base_pfn + tier.total)
        live = int((st.state[span] != STATE_FREE).sum())
        if live != tier.used:
            raise InvariantViolation(
                "frame_conservation",
                f"tier {tier.tier_id}: {live} non-free frames in store but "
                f"used counter says {tier.used}",
                context={"tier": tier.tier_id, "store_live": live, "used": tier.used},
            )


def check_store_rows(store: PageStatsStore) -> None:
    """Per-row internal consistency of the struct-of-arrays page store."""
    try:
        store.check_row_invariants()
    except AssertionError as exc:
        raise InvariantViolation("store_rows", str(exc)) from exc


def check_page_tables(exp) -> None:
    """Each live pid's page table and the frame rows it maps agree.

    For every pid: the decoded ``pfn``/``owner``/``dirty`` columns match
    the raw entry, whose P bit is set; every present PTE points at a
    MAPPED row bound to the same pid and vpn; the pid has no other
    MAPPED row; and ``rss_pages`` equals the number of present PTEs.
    """
    store = exp.allocator.store
    rows = np.flatnonzero(store.state == STATE_MAPPED)
    row_pids = store.pid[rows]
    for pid, space in sorted(exp._spaces.items()):
        flat = space.process.repl.flat
        vpns = flat.present_vpns()
        i = flat.indices(vpns)
        raw, pfns, owners, dirty = flat.value[i], flat.pfn[i], flat.owner[i], flat.dirty[i]
        stale = (
            ((raw & pte_mod.PTE_PRESENT) == 0)
            | (pte_mod.pte_pfn(raw) != pfns)
            | (pte_mod.pte_tid(raw) != owners)
            | (((raw & pte_mod.PTE_DIRTY) != 0) != dirty)
        )
        if stale.any():
            k = int(np.flatnonzero(stale)[0])
            vpn, pfn = int(vpns[k]), int(pfns[k])
            raise InvariantViolation(
                "page_tables",
                f"pid {pid} vpn {vpn}: raw PTE {int(raw[k]):#x} disagrees with its "
                f"columns (pfn {pfn}, owner {int(owners[k])}, dirty {bool(dirty[k])})",
                context={"pid": pid, "vpn": vpn, "pfn": pfn},
            )
        row = np.minimum(pfns, store.capacity - 1)
        bound = (
            (pfns < store.capacity)
            & (store.state[row] == STATE_MAPPED)
            & (store.pid[row] == pid)
            & (store.vpn[row] == vpns)
        )
        if not bound.all():
            k = int(np.flatnonzero(~bound)[0])
            vpn, pfn = int(vpns[k]), int(pfns[k])
            raise InvariantViolation(
                "page_tables",
                f"pid {pid} vpn {vpn} maps pfn {pfn}, which is not a MAPPED row of "
                f"that pid and vpn",
                context={"pid": pid, "vpn": vpn, "pfn": pfn},
            )
        orphans = np.setdiff1d(rows[row_pids == pid], pfns)
        if orphans.size:
            pfn = int(orphans[0])
            vpn = int(store.vpn[pfn])
            raise InvariantViolation(
                "page_tables",
                f"pid {pid}: pfn {pfn} is MAPPED to vpn {vpn} but no PTE points at it "
                f"({orphans.size} such row(s))",
                context={"pid": pid, "vpn": vpn, "pfn": pfn},
            )
        if space.process.rss_pages != vpns.size:
            raise InvariantViolation(
                "page_tables",
                f"pid {pid}: rss_pages {space.process.rss_pages} != {vpns.size} present PTEs",
                context={"pid": pid, "rss_pages": space.process.rss_pages},
            )


def check_no_foreign_frames(store: PageStatsStore, live_pids: set[int]) -> None:
    """Every non-free frame belongs to a live pid (no leaked PFNs).

    This is the leak check teardown cannot make: ``free_pid`` proves the
    *departing* pid left nothing behind, but only a global sweep catches
    a frame still bound to a pid that is no longer running at all.
    """
    pfns = store.foreign_frames(live_pids)
    if pfns.size:
        owners = sorted(set(store.pid[pfns].tolist()))
        raise InvariantViolation(
            "leaked_frames",
            f"{pfns.size} frame(s) owned by departed pid(s) {owners}: "
            f"pfns {pfns[:8].tolist()}",
            context={"pids": owners, "n_frames": int(pfns.size), "first_pfns": pfns[:8].tolist()},
        )


def check_credit_conservation(policy) -> None:
    """CBFRP credits are zero-sum: Σ balances == endowment still banked.

    Applies to any policy exposing a ``daemon.credits`` ledger (Vulcan);
    a policy without one passes vacuously.
    """
    daemon = getattr(policy, "daemon", None)
    if daemon is None:
        return
    ledger = daemon.credits
    try:
        ledger.check_conservation()
    except RuntimeError as exc:
        raise InvariantViolation("credit_conservation", str(exc)) from exc
    missing = [pid for pid in daemon.workloads if pid not in ledger.credits]
    if missing:
        raise InvariantViolation(
            "credit_conservation",
            f"managed pid(s) {missing} have no credit account",
            context={"pids": missing},
        )


def check_capacity_caps(policy) -> None:
    """CBFRP quotas never overcommit the partitioned fast-tier capacity."""
    daemon = getattr(policy, "daemon", None)
    if daemon is None:
        return
    granted = sum(daemon.quotas.values())
    capacity = daemon.qos.fast_capacity_pages
    if granted > capacity:
        raise InvariantViolation(
            "capacity_cap",
            f"Σ quotas = {granted} pages exceeds partition capacity {capacity}",
            context={"granted": granted, "capacity": capacity},
        )


def check_heat_consistency(policy) -> None:
    """Every profiler heat book's key set matches its dense arrays."""
    for pid, rt in policy.workloads.items():
        for label, store in _profiler_heat_stores(rt.profiler):
            try:
                store.check_consistency()
            except RuntimeError as exc:
                raise InvariantViolation(
                    "heat_consistency",
                    f"pid {pid} {label}: {exc}",
                    context={"pid": pid, "store": label},
                ) from exc


def _profiler_heat_stores(profiler) -> list[tuple[str, object]]:
    """(label, HeatStore) pairs for a profiler, including nested ones."""
    stores: list[tuple[str, object]] = []
    seen: set[int] = set()

    def walk(prefix: str, prof) -> None:
        if id(prof) in seen:
            return
        seen.add(id(prof))
        for attr in ("_heat", "_write_heat"):
            store = getattr(prof, attr, None)
            if store is not None:
                stores.append((f"{prefix}{attr.lstrip('_')}", store))
        # hybrid profilers nest mechanism profilers with their own books
        for sub in ("pebs", "faults"):
            child = getattr(prof, sub, None)
            if child is not None and hasattr(child, "_heat"):
                walk(f"{prefix}{sub}.", child)

    walk("", profiler)
    return stores


def check_nonneg_metrics(result) -> None:
    """Recorded timeseries stay in range: no negative ops/pages/stalls,
    FTHR within [0, 1], epoch stamps strictly increasing and in-run."""
    n = result.n_epochs
    bounds = {
        "ops": (0.0, None),
        "fast_pages": (0, None),
        "rss_pages": (0, None),
        "stall_cycles": (0.0, None),
        "hot_pages": (0, None),
        "hot_in_fast": (0, None),
        "cold_in_fast": (0, None),
        "fthr_true": (0.0, 1.0),
    }
    for pid, ts in result.workloads.items():
        epochs = np.asarray(ts.epochs, dtype=np.int64)
        if epochs.size and (epochs[0] < 0 or epochs[-1] >= n or (np.diff(epochs) <= 0).any()):
            raise InvariantViolation(
                "metrics_range",
                f"pid {pid}: epoch stamps not strictly increasing within [0, {n})",
                context={"pid": pid, "first": int(epochs[0]), "last": int(epochs[-1])},
            )
        for name, (lo, hi) in bounds.items():
            vals = np.asarray(getattr(ts, name), dtype=np.float64)
            bad = ~np.isfinite(vals) | (vals < lo) | ((vals > hi) if hi is not None else False)
            if bool(bad.any()):
                i = int(np.flatnonzero(bad)[0])
                raise InvariantViolation(
                    "metrics_range",
                    f"pid {pid}: {name}[{i}] = {vals[i]!r} outside "
                    f"[{lo}, {'inf' if hi is None else hi}]",
                    context={"pid": pid, "series": name, "index": i, "value": float(vals[i])},
                )


def check_fleet_round(record: dict, workload_keys: set[str]) -> None:
    """Frame conservation *across* nodes for one fleet sync round.

    The single-box checks prove no frames leak inside a node; this is
    the fleet-level complement over a round record (see
    ``FleetExperiment``): every workload lives on exactly one active
    node, no workload vanishes or duplicates across a drain/join, each
    node's telemetry accounts for exactly its assigned residents, and
    the pages a node reports in use never exceed its capacity.
    """
    rnd = record.get("round")
    assignment = record["assignment"]
    active = set(record["active"])
    if set(assignment) != workload_keys:
        lost = sorted(workload_keys - set(assignment))
        extra = sorted(set(assignment) - workload_keys)
        raise InvariantViolation(
            "fleet_conservation",
            f"round {rnd}: workload set changed: lost={lost} extra={extra}",
            context={"round": rnd, "lost": lost, "extra": extra},
        )
    stray = sorted(k for k, n in assignment.items() if n not in active)
    if stray:
        raise InvariantViolation(
            "fleet_conservation",
            f"round {rnd}: workload(s) {stray} assigned to inactive nodes",
            context={"round": rnd, "keys": stray},
        )
    hosted: dict[str, set[str]] = {n: set() for n in active}
    for node in record["nodes"]:
        nid = node["node_id"]
        if nid not in active:
            raise InvariantViolation(
                "fleet_conservation",
                f"round {rnd}: telemetry from inactive node {nid}",
                context={"round": rnd, "node": nid},
            )
        hosted[nid] = {w["key"] for w in node["workloads"]}
        used = node["fast_capacity_pages"] - node["free_fast_pages"]
        if used < 0 or used > node["fast_capacity_pages"]:
            raise InvariantViolation(
                "fleet_conservation",
                f"round {rnd}: node {nid} reports {used} used pages outside "
                f"[0, {node['fast_capacity_pages']}]",
                context={"round": rnd, "node": nid, "used": used},
            )
    for nid in sorted(active):
        want = {k for k, n in assignment.items() if n == nid}
        if hosted.get(nid, set()) != want:
            raise InvariantViolation(
                "fleet_conservation",
                f"round {rnd}: node {nid} hosted {sorted(hosted.get(nid, set()))} "
                f"but the placer assigned {sorted(want)}",
                context={"round": rnd, "node": nid,
                         "hosted": sorted(hosted.get(nid, set())),
                         "assigned": sorted(want)},
            )


# -- the oracle object the engine / fuzzer attach --------------------------------


@dataclass
class InvariantOracle:
    """Runs the full check battery after epochs and at teardown.

    ``deep_every`` throttles the O(n_frames) sweeps (free-list
    cross-check, row invariants, page tables against frame rows) to
    every k-th epoch; the cheap global
    checks (leaks, credits, caps, heat books) run every epoch.  The
    scenario engine's ``--check`` and the fuzzer both use the default
    (every epoch).
    """

    deep_every: int = 1
    epochs_checked: int = field(default=0, init=False)
    finals_checked: int = field(default=0, init=False)

    def check_epoch(self, exp, epoch: int) -> None:
        try:
            if self.deep_every > 0 and epoch % self.deep_every == 0:
                check_frame_conservation(exp.allocator)
                check_store_rows(exp.allocator.store)
                check_page_tables(exp)
            check_no_foreign_frames(exp.allocator.store, set(exp._active))
            check_credit_conservation(exp.policy)
            check_capacity_caps(exp.policy)
            check_heat_consistency(exp.policy)
        except InvariantViolation as exc:
            exc.stamp_epoch(epoch)
            raise
        self.epochs_checked += 1

    def check_final(self, exp, result) -> None:
        check_frame_conservation(exp.allocator)
        check_store_rows(exp.allocator.store)
        check_page_tables(exp)
        check_no_foreign_frames(exp.allocator.store, set(exp._active))
        check_credit_conservation(exp.policy)
        check_capacity_caps(exp.policy)
        check_heat_consistency(exp.policy)
        check_nonneg_metrics(result)
        self.finals_checked += 1
