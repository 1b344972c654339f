"""ScenarioExperiment: teardown invariants, event dispatch, fault absorption.

Most tests run a micro machine (milliseconds); the churn acceptance
invariants — zero leaked frames after every teardown, CBFRP quotas
re-partitioned within one epoch of each departure — run once against
the real canned ``churn`` scenario via a module-scoped fixture.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer
from repro.scenario import (
    ScenarioEvent,
    ScenarioExperiment,
    ScenarioSpec,
    WorkloadDef,
    get_scenario,
)
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig

UNIT = 10**6


def micro_machine(fast_pages=160, slow_pages=1024):
    return MachineConfig(
        n_cores=16,
        fast=TierConfig(name="fast", capacity_bytes=fast_pages * UNIT, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=slow_pages * UNIT, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )


def micro_spec(events=(), *, n_epochs=10, policy="vulcan", workloads=None):
    if workloads is None:
        workloads = (
            WorkloadDef(key="a", kind="memcached", service="LC", rss_pages=100,
                        n_threads=2, accesses_per_thread=800),
            WorkloadDef(key="b", kind="liblinear", service="BE", rss_pages=120,
                        n_threads=2, accesses_per_thread=800),
        )
    return ScenarioSpec(
        name="micro", n_epochs=n_epochs, seed=5, policy=policy,
        workloads=tuple(workloads), events=tuple(events),
    ).validate()


def run_micro(events=(), **kw):
    spec = micro_spec(events, **kw)
    exp = ScenarioExperiment(
        spec,
        machine_config=micro_machine(),
        sim=SimulationConfig(page_unit_bytes=UNIT, epoch_seconds=0.5),
        cores_per_workload=4,
    )
    exp.run()
    return exp


@pytest.fixture(scope="module")
def churn():
    exp = ScenarioExperiment(get_scenario("churn"))
    exp.run()
    return exp


class TestTeardown:
    def test_departure_frees_every_frame(self):
        exp = run_micro([ScenarioEvent(epoch=4, action="depart", target="b")])
        sres = exp.scenario_result
        assert len(sres.departures) == 1
        dep = sres.departures[0]
        assert dep["freed"]["mapped"] == 120
        # Nothing of the departed pid survives anywhere.
        assert exp.allocator.store.owned_frames(dep["pid"]).size == 0
        assert exp.allocator.store.fast_usage(dep["pid"]) == 0
        exp.allocator.check_consistency()

    def test_departed_pid_detached_from_policy_and_daemon(self):
        exp = run_micro([ScenarioEvent(epoch=4, action="depart", target="b")])
        pid = exp.scenario_result.departures[0]["pid"]
        assert pid not in exp.policy.workloads
        assert pid not in exp.policy.daemon.workloads
        assert pid not in exp.policy.daemon.quotas
        assert pid not in exp.policy.daemon.qos.workloads

    def test_departed_series_ends_at_departure(self):
        exp = run_micro([ScenarioEvent(epoch=4, action="depart", target="b")])
        dep = exp.scenario_result.departures[0]
        ts = exp.scenario_result.result.workloads[dep["pid"]]
        assert ts.last_epoch == dep["epoch"] - 1

    def test_depart_emits_obs_event(self):
        tracer = get_tracer()
        tracer.enable()
        try:
            exp = run_micro([ScenarioEvent(epoch=4, action="depart", target="b")])
            departs = [e for e in tracer.events() if e.kind is EventKind.WORKLOAD_DEPART]
        finally:
            tracer.disable()
        assert len(departs) == 1
        assert departs[0].args["epoch"] == 4
        assert departs[0].args["freed"]["mapped"] == 120
        assert exp.scenario_result.departures[0]["pid"] == departs[0].pid


class TestRestart:
    def test_restart_is_a_fresh_process(self):
        exp = run_micro([
            ScenarioEvent(epoch=3, action="depart", target="b"),
            ScenarioEvent(epoch=6, action="restart", target="b"),
        ])
        sres = exp.scenario_result
        old = sres.departures[0]["pid"]
        new = sres.restarts[0]["pid"]
        assert new != old
        assert sres.restarts[0]["generation"] == 1
        # The new instance reuses the departed core block...
        assert exp._core_base[new] == 4
        # ...and records its own timeseries from the restart epoch on.
        ts = sres.result.workloads[new]
        assert ts.first_epoch == 6
        assert ts.name == "b"

    def test_restart_emits_obs_event(self):
        tracer = get_tracer()
        tracer.enable()
        try:
            run_micro([
                ScenarioEvent(epoch=3, action="depart", target="b"),
                ScenarioEvent(epoch=6, action="restart", target="b"),
            ])
            restarts = [e for e in tracer.events() if e.kind is EventKind.WORKLOAD_RESTART]
        finally:
            tracer.disable()
        assert len(restarts) == 1
        assert restarts[0].args == {"epoch": 6, "generation": 1}


class TestEvents:
    def test_phase_shift_diverges_only_after_the_shift(self):
        quiet = run_micro(n_epochs=8).scenario_result.result
        shifted = run_micro(
            [ScenarioEvent(epoch=4, action="phase_shift", target="a",
                           params={"attrs": {"hot_frac": 0.6}})],
            n_epochs=8,
        ).scenario_result.result
        a_quiet = quiet.by_name("a")
        a_shift = shifted.by_name("a")
        assert a_quiet.fthr_true[:4] == a_shift.fthr_true[:4]
        assert a_quiet.fthr_true[4:] != a_shift.fthr_true[4:]

    def test_qos_change_reaches_policy_and_daemon(self):
        exp = run_micro([ScenarioEvent(epoch=4, action="qos_change", target="b",
                                       params={"service": "LC"})])
        change = exp.scenario_result.qos_changes[0]
        assert (change["from"], change["to"]) == ("BE", "LC")
        rt = exp.policy.workloads[change["pid"]]
        assert rt.service is ServiceClass.LC
        assert exp.policy.daemon.workloads[change["pid"]].service is ServiceClass.LC

    def test_tier_offline_online_tracks_capacity(self):
        exp = run_micro([
            ScenarioEvent(epoch=2, action="tier_offline", params={"pages": 40}),
            ScenarioEvent(epoch=6, action="tier_online"),
        ])
        evs = exp.scenario_result.capacity_events
        assert [e["what"] for e in evs] == ["tier_offline", "tier_online"]
        assert evs[0]["offlined"] <= 40
        assert evs[0]["fast_online"] == 160 - evs[0]["offlined"]
        assert evs[1]["fast_online"] == 160
        assert exp.allocator.tiers[0].online == 160
        # Vulcan's partition base follows the online capacity back up.
        assert exp.policy.daemon.qos.fast_capacity_pages == 160
        exp.allocator.check_consistency()

    def test_link_degrade_and_restore(self):
        exp = run_micro([
            ScenarioEvent(epoch=2, action="link_degrade",
                          params={"bandwidth_factor": 0.5, "latency_factor": 2.0}),
            ScenarioEvent(epoch=6, action="link_restore"),
        ])
        evs = exp.scenario_result.capacity_events
        assert evs[0]["bandwidth_gbps"] == pytest.approx(12.5)
        assert evs[0]["added_latency_ns"] == pytest.approx(180.0)
        assert not exp.machine.link.degraded


class TestFaults:
    FAULTY = (
        ScenarioEvent(epoch=1, action="faults_set",
                      params={"aborted_sync": 0.5, "lost_async": 0.5, "poisoned_shadow": 0.5}),
    )

    def test_faults_fire_and_page_state_survives(self):
        exp = run_micro(self.FAULTY, n_epochs=8)
        sres = exp.scenario_result
        assert sres.faults, "armed faults never fired"
        kinds = {f["kind"] for f in sres.faults}
        assert kinds <= {"aborted_sync", "lost_async", "poisoned_shadow"}
        # _finish_run already ran check_consistency + row invariants;
        # re-check explicitly so a regression fails here, not obliquely.
        exp.allocator.check_consistency()
        exp.allocator.store.check_row_invariants()
        total = sum(
            sum(rt.engine.stats.faults_injected.values())
            for rt in exp.policy.workloads.values()
        )
        assert total == len(sres.faults)

    def test_faults_clear_stops_injection(self):
        exp = run_micro(
            list(self.FAULTY) + [ScenarioEvent(epoch=4, action="faults_clear")],
            n_epochs=8,
        )
        assert all(f["epoch"] < 4 for f in exp.scenario_result.faults)

    def test_zero_probability_arming_changes_nothing(self):
        baseline = run_micro(n_epochs=6).scenario_result
        armed = run_micro(
            [ScenarioEvent(epoch=1, action="faults_set", params={"lost_async": 0.0})],
            n_epochs=6,
        ).scenario_result
        assert not armed.faults
        assert armed.result.to_dict() == baseline.result.to_dict()


class TestChurnAcceptance:
    """The ISSUE acceptance criteria, against the real canned scenario."""

    def test_shape(self, churn):
        sres = churn.scenario_result
        assert len(sres.departures) == 2
        assert len(sres.restarts) == 1
        assert len(sres.faults) >= 1
        starts = sorted(d.start_epoch for d in churn.spec.workloads)
        assert len(set(starts)) == 3, "arrivals must be staggered"

    def test_zero_leaked_frames_after_every_teardown(self, churn):
        sres = churn.scenario_result
        assert len(sres.leak_checks) == 2
        assert all(c["consistent"] for c in sres.leak_checks)
        for dep in sres.departures:
            assert churn.allocator.store.owned_frames(dep["pid"]).size == 0
        churn.allocator.check_consistency()
        churn.allocator.store.check_row_invariants()
        # Frame conservation: what the survivors own plus the free lists
        # must account for the whole fast tier.
        fast = churn.allocator.tiers[0]
        live_fast = sum(
            churn.allocator.store.fast_usage(pid) for pid in churn.policy.workloads
        )
        assert live_fast + fast.free == fast.total

    def test_quotas_repartition_within_one_epoch_of_departure(self, churn):
        sres = churn.scenario_result
        result = sres.result
        n = result.n_epochs
        strict_gain = False
        for dep in sres.departures:
            e = dep["epoch"]
            # The departed pid is out of the partition the same epoch:
            # its quota series (recorded *after* the CBFRP pass) ends
            # at e-1, never at e.
            departed = result.workloads[dep["pid"]]
            assert departed.last_epoch == e - 1
            survivors = [
                ts for pid, ts in result.workloads.items()
                if pid != dep["pid"] and not np.isnan(ts.aligned("quota", n)[e])
            ]
            assert survivors, f"no survivor active at departure epoch {e}"
            before = sum(ts.aligned("quota", n)[e - 1] for ts in survivors)
            after = sum(ts.aligned("quota", n)[e] for ts in survivors)
            # Freed credits can only help the survivors; a survivor whose
            # demand was already satisfied legitimately stays flat.
            assert after >= before, (
                f"departure @{e}: surviving quotas shrank {before} -> {after}"
            )
            strict_gain = strict_gain or after > before
        assert strict_gain, "no departure re-partitioned any credits to a survivor"

    def test_restarted_workload_regains_quota_at_restart_epoch(self, churn):
        sres = churn.scenario_result
        rst = sres.restarts[0]
        ts = sres.result.workloads[rst["pid"]]
        assert ts.first_epoch == rst["epoch"]
        assert ts.quota[0] > 0
