"""Deliberate state corruption must be caught with precise diagnostics.

Each test runs a small real scenario to get genuine post-run state,
corrupts exactly one invariant the way a plausible bug would, and
asserts the oracle names the corruption — the right check id and a
message carrying the actual pids/pfns/counts involved.  These are the
mutation tests proving the oracle is not vacuous.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz.oracle import (
    InvariantOracle,
    InvariantViolation,
    check_credit_conservation,
    check_frame_conservation,
    check_heat_consistency,
    check_no_foreign_frames,
    check_nonneg_metrics,
    check_page_tables,
    check_store_rows,
)
from repro.mm import pte as pte_mod
from repro.scenario.engine import ScenarioExperiment
from repro.scenario.spec import ScenarioEvent, ScenarioSpec, WorkloadDef
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig

UNIT = 10**6


def _small_machine(fast: int = 64, slow: int = 512) -> MachineConfig:
    return MachineConfig(
        n_cores=8,
        fast=TierConfig(name="fast", capacity_bytes=fast * UNIT,
                        load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=slow * UNIT,
                        load_latency_ns=162.0, bandwidth_gbps=25.0),
    )


def _ran_experiment(policy: str = "vulcan") -> ScenarioExperiment:
    spec = ScenarioSpec(
        name="mutant-bed",
        n_epochs=6,
        workloads=(
            WorkloadDef(key="a", kind="microbench", service="LC", rss_pages=40,
                        n_threads=2, accesses_per_thread=500),
            WorkloadDef(key="b", kind="memcached", service="BE", rss_pages=40,
                        n_threads=2, accesses_per_thread=500),
        ),
        events=(ScenarioEvent(epoch=3, action="depart", target="b"),),
        policy=policy,
        seed=5,
    )
    exp = ScenarioExperiment(
        spec,
        machine_config=_small_machine(),
        sim=SimulationConfig(page_unit_bytes=UNIT, epoch_seconds=0.5),
        cores_per_workload=4,
    )
    exp.run()
    return exp


def _mapped_pfn(bed: ScenarioExperiment, pid: int) -> int:
    """The frame behind ``pid``'s first present PTE."""
    flat = bed._spaces[pid].process.repl.flat
    return int(flat.pfn[flat.pfn >= 0][0])


@pytest.fixture(scope="module")
def bed() -> ScenarioExperiment:
    # one shared run; every test corrupts a *copy-free* aspect, so each
    # must restore what it breaks (cheaper than a run per test)
    return _ran_experiment()


class TestLeakedFrame:
    def test_frame_bound_to_dead_pid_is_reported(self, bed):
        store = bed.allocator.store
        live_pid = next(iter(bed._active))
        pfn = _mapped_pfn(bed, live_pid)
        old_pid = int(store.pid[pfn])
        store.pid[pfn] = 4242  # nobody is running pid 4242
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_no_foreign_frames(store, set(bed._active))
            assert exc.value.check == "leaked_frames"
            assert "4242" in str(exc.value)
            assert pfn in exc.value.context["first_pfns"]
        finally:
            store.pid[pfn] = old_pid
        check_no_foreign_frames(store, set(bed._active))  # restored => clean


class TestDoubleFree:
    def test_allocator_rejects_double_free(self, bed):
        # a frame that went through allocate+free once (workload "b"
        # departed mid-run, so its frames are back on the free lists)
        pfn = next(
            p for tier in bed.allocator.tiers for p in tier.free_list
            if bed.allocator.ever_allocated(p)
        )
        with pytest.raises(ValueError, match=f"double free of pfn {pfn}"):
            bed.allocator.free(pfn)

    def test_duplicated_free_list_entry_is_reported(self, bed):
        # a double-free that slipped past the bitmap leaves the same pfn
        # listed twice; conservation must see list != bitmap cardinality
        tier = bed.allocator.tiers[1]
        tier.free_list.append(tier.free_list[0])
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_frame_conservation(bed.allocator)
            assert exc.value.check == "frame_conservation"
            assert "duplicates" in str(exc.value)
        finally:
            tier.free_list.pop()
        check_frame_conservation(bed.allocator)

    def test_live_frame_on_free_list_is_reported(self, bed):
        store = bed.allocator.store
        live_pid = next(iter(bed._active))
        pfn = _mapped_pfn(bed, live_pid)
        store.in_free_list[pfn] = True
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_frame_conservation(bed.allocator)
            assert exc.value.check == "frame_conservation"
        finally:
            store.in_free_list[pfn] = False
        check_frame_conservation(bed.allocator)


class TestCreditSkew:
    def test_minted_credit_is_reported_with_drift(self, bed):
        ledger = bed.policy.daemon.credits
        pid = next(iter(ledger.credits))
        ledger.credits[pid] += 3  # mint 3 credits out of thin air
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_credit_conservation(bed.policy)
            assert exc.value.check == "credit_conservation"
            assert "drift +3" in str(exc.value)
        finally:
            ledger.credits[pid] -= 3
        check_credit_conservation(bed.policy)

    def test_destroyed_credit_is_reported(self, bed):
        ledger = bed.policy.daemon.credits
        pid = next(iter(ledger.credits))
        ledger.credits[pid] -= 1
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_credit_conservation(bed.policy)
            assert "drift -1" in str(exc.value)
        finally:
            ledger.credits[pid] += 1


class TestHeatDesync:
    def _a_heat_book(self, bed):
        for pid, rt in bed.policy.workloads.items():
            prof = rt.profiler
            for attr in ("_heat",):
                store = getattr(prof, attr, None)
                if store is None:
                    for sub in ("pebs", "faults"):
                        child = getattr(prof, sub, None)
                        if child is not None and getattr(child, "_heat", None) is not None:
                            store = child._heat
                            break
                if store is not None and store.pids():
                    bpid = store.pids()[0]
                    if store.ordered_vpns(bpid).size:
                        return store, bpid
        pytest.skip("no populated heat book in this run")

    def test_dropped_order_key_is_reported(self, bed):
        store, pid = self._a_heat_book(bed)
        ph = store._pids[pid]
        order, n = ph.order, ph.n_order
        # the order loses its first vpn, which the live mask still has
        ph.order, ph.n_order = order[1:n].copy(), n - 1
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_heat_consistency(bed.policy)
            assert exc.value.check == "heat_consistency"
            assert "desynced" in str(exc.value)
        finally:
            ph.order, ph.n_order = order, n
        check_heat_consistency(bed.policy)

    def test_duplicated_order_key_is_reported(self, bed):
        store, pid = self._a_heat_book(bed)
        ph = store._pids[pid]
        order, n = ph.order, ph.n_order
        ph.order = np.append(order[:n], order[0])  # one live vpn twice
        ph.n_order = n + 1
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_heat_consistency(bed.policy)
            assert "desynced" in str(exc.value)
        finally:
            ph.order, ph.n_order = order, n
        check_heat_consistency(bed.policy)

    def test_nonzero_dead_slot_is_reported(self, bed):
        store, pid = self._a_heat_book(bed)
        ph = store._pids[pid]
        idx = int(np.flatnonzero(~ph.live)[0])
        ph.heat[idx] = 0.5  # decay compaction failed to zero a dropped slot
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_heat_consistency(bed.policy)
            assert "dead slot" in str(exc.value)
        finally:
            ph.heat[idx] = 0.0


class TestStoreRows:
    def test_free_frame_with_pid_is_reported(self, bed):
        store = bed.allocator.store
        pfn = int(np.flatnonzero(store.state == 0)[0])
        store.pid[pfn] = 7
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_store_rows(store)
            assert exc.value.check == "store_rows"
        finally:
            store.pid[pfn] = -1
        check_store_rows(store)


class TestPageTables:
    def _table(self, bed):
        """A live pid, its page table and its first two mapped vpns."""
        pid = next(iter(bed._active))
        flat = bed._spaces[pid].process.repl.flat
        a, b = flat.present_vpns()[:2].tolist()
        return pid, flat, a, b

    def test_stale_raw_pte_is_reported(self, bed):
        pid, flat, vpn, other = self._table(bed)
        i, j = vpn - flat.base, other - flat.base
        old = int(flat.value[i])
        # the remap wrote the pfn column but left the raw entry behind
        flat.value[i] = pte_mod.pte_with_pfn(old, int(flat.pfn[j]))
        try:
            with pytest.raises(InvariantViolation) as exc:
                InvariantOracle().check_final(bed, bed.scenario_result.result)
            assert exc.value.check == "page_tables"
            assert f"pid {pid} vpn {vpn}:" in str(exc.value)
            assert f"pfn {int(flat.pfn[i])}" in str(exc.value)
        finally:
            flat.value[i] = old
        check_page_tables(bed)

    def test_pte_pointing_at_another_vpns_frame_is_reported(self, bed):
        pid, flat, vpn, other = self._table(bed)
        i, j = vpn - flat.base, other - flat.base
        old_pfn, old_value = int(flat.pfn[i]), int(flat.value[i])
        stolen = int(flat.pfn[j])
        flat.pfn[i] = stolen  # decoded and raw agree, but the frame is other's
        flat.value[i] = pte_mod.pte_with_pfn(old_value, stolen)
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_page_tables(bed)
            assert exc.value.check == "page_tables"
            assert f"pid {pid} vpn {vpn} maps pfn {stolen}" in str(exc.value)
            assert exc.value.context == {"pid": pid, "vpn": vpn, "pfn": stolen}
        finally:
            flat.pfn[i], flat.value[i] = old_pfn, old_value
        check_page_tables(bed)

    def test_mapped_row_without_pte_is_reported(self, bed):
        pid, flat, vpn, _ = self._table(bed)
        i = vpn - flat.base
        saved = int(flat.pfn[i]), int(flat.owner[i]), bool(flat.dirty[i]), int(flat.value[i])
        flat.clear(vpn)  # the PTE vanished; its frame row still says MAPPED
        try:
            with pytest.raises(InvariantViolation) as exc:
                InvariantOracle().check_epoch(bed, 2)
            assert exc.value.check == "page_tables"
            assert f"pid {pid}: pfn {saved[0]} is MAPPED to vpn {vpn}" in str(exc.value)
            assert exc.value.epoch == 2
        finally:
            flat.set(vpn, *saved)
        check_page_tables(bed)


class TestMetricsRange:
    def test_negative_ops_is_reported(self, bed):
        result = bed.scenario_result.result
        ts = next(iter(result.workloads.values()))
        old = ts.ops[0]
        ts.ops[0] = -1.0
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_nonneg_metrics(result)
            assert exc.value.check == "metrics_range"
            assert exc.value.context["series"] == "ops"
        finally:
            ts.ops[0] = old
        check_nonneg_metrics(result)

    def test_fthr_above_one_is_reported(self, bed):
        result = bed.scenario_result.result
        ts = next(iter(result.workloads.values()))
        old = ts.fthr_true[0]
        ts.fthr_true[0] = 1.5
        try:
            with pytest.raises(InvariantViolation) as exc:
                check_nonneg_metrics(result)
            assert exc.value.context["series"] == "fthr_true"
        finally:
            ts.fthr_true[0] = old


class TestOracleObject:
    def test_epoch_is_stamped_onto_violations(self, bed):
        ledger = bed.policy.daemon.credits
        pid = next(iter(ledger.credits))
        ledger.credits[pid] += 1
        try:
            with pytest.raises(InvariantViolation) as exc:
                InvariantOracle().check_epoch(bed, 4)
            assert exc.value.epoch == 4
            assert "@epoch 4" in str(exc.value)
        finally:
            ledger.credits[pid] -= 1

    def test_clean_state_passes_full_battery(self, bed):
        oracle = InvariantOracle()
        oracle.check_epoch(bed, 0)
        oracle.check_final(bed, bed.scenario_result.result)
        assert oracle.epochs_checked == 1
        assert oracle.finals_checked == 1
