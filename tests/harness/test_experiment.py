"""The epoch-driven co-location harness."""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.harness import ColocationExperiment
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.microbench import MicrobenchWorkload


def tiny_machine(fast_pages=128, slow_pages=1024):
    unit = 10**6
    return MachineConfig(
        n_cores=16,
        fast=TierConfig(name="fast", capacity_bytes=fast_pages * unit, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=slow_pages * unit, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )


def sim():
    return SimulationConfig(page_unit_bytes=10**6, epoch_seconds=0.5)


def wl(name="w", rss=100, start=0, threads=2, seed=0):
    return MemcachedWorkload(
        WorkloadSpec(name=name, service=ServiceClass.LC, rss_pages=rss, n_threads=threads,
                     start_epoch=start, accesses_per_thread=2000),
        seed=seed,
    )


def make_exp(policy="none", workloads=None, **kw):
    return ColocationExperiment(
        policy, workloads if workloads is not None else [wl()],
        machine_config=tiny_machine(), sim=sim(), cores_per_workload=4, **kw,
    )


def test_run_produces_full_timeseries():
    res = make_exp().run(5)
    ts = res.by_name("w")
    assert ts.epochs == list(range(5))
    assert len(ts.ops) == 5
    assert all(o > 0 for o in ts.ops)
    assert len(res.free_fast_pages) == 5
    assert len(res.migration_cycles) == 5


def test_admission_at_start_epoch():
    late = wl("late", start=3, seed=1)
    res = make_exp(workloads=[wl("early"), late]).run(6)
    assert res.by_name("early").epochs == list(range(6))
    assert res.by_name("late").epochs == [3, 4, 5]


def test_first_touch_fast_then_slow():
    # RSS 200 > 128 fast pages: the overflow lands in the slow tier.
    res = make_exp(workloads=[wl(rss=200)]).run(1)
    ts = res.by_name("w")
    assert ts.fast_pages[0] == 128
    assert ts.rss_pages[0] == 200


def test_fthr_reflects_placement():
    # Everything fits in fast: FTHR == 1.
    res = make_exp(workloads=[wl(rss=64)]).run(3)
    assert res.by_name("w").fthr_true[-1] == pytest.approx(1.0)


def test_hot_cold_accounting_consistent():
    res = make_exp(workloads=[wl(rss=200)]).run(3)
    ts = res.by_name("w")
    for hot, hot_fast, cold_fast, fast in zip(ts.hot_pages, ts.hot_in_fast, ts.hot_in_fast, ts.fast_pages):
        assert hot_fast <= hot
        assert hot_fast <= fast


def test_core_blocks_are_dedicated():
    exp = make_exp(workloads=[wl("a"), wl("b", seed=1)])
    exp.run(1)
    cores_by_pid = {}
    for pid, rt in exp.policy.workloads.items():
        cores_by_pid[pid] = set(rt.thread_core_map.values())
    blocks = list(cores_by_pid.values())
    assert blocks[0].isdisjoint(blocks[1])


def test_out_of_core_blocks_raises():
    workloads = [wl(f"w{i}", seed=i) for i in range(5)]  # 5 × 4 cores > 16
    with pytest.raises(RuntimeError):
        make_exp(workloads=workloads).run(1)


def test_deterministic_given_seed():
    r1 = make_exp(policy="memtis", seed=11).run(4)
    r2 = make_exp(policy="memtis", seed=11).run(4)
    np.testing.assert_allclose(r1.by_name("w").ops, r2.by_name("w").ops)
    np.testing.assert_allclose(r1.by_name("w").fthr_true, r2.by_name("w").fthr_true)


def test_by_name_missing_raises():
    res = make_exp().run(1)
    with pytest.raises(KeyError):
        res.by_name("nope")


def test_issue_rate_scales_ops():
    """An idle epoch yields fewer achieved ops than a burst epoch."""
    w = wl(rss=64)
    res = make_exp(workloads=[w]).run(8)
    ts = res.by_name("w")
    assert max(ts.ops) > 1.5 * min(ts.ops)  # burst/idle spread


def test_mean_ops_skips_warmup():
    res = make_exp().run(6)
    ts = res.by_name("w")
    assert ts.mean_ops(skip=3) == pytest.approx(float(np.mean(ts.ops[3:])))


def test_hot_ratio_property_bounds():
    res = make_exp(workloads=[wl(rss=200)]).run(4)
    hr = res.by_name("w").hot_ratio
    assert ((hr >= 0.0) & (hr <= 1.0)).all()


# -- gap-tolerant timeseries + round-trips (churn support) -----------------------

import json

from repro.harness.experiment import ExperimentResult, WorkloadTimeseries


def _late_short_ts():
    """A workload active only over epochs 2..4 of a 8-epoch run."""
    return WorkloadTimeseries(
        pid=7, name="late", epochs=[2, 3, 4],
        ops=[10.0, 20.0, 30.0], fast_pages=[1, 2, 3],
        fthr_true=[0.5, 0.6, 0.7],
    )


class TestGapTolerantSeries:
    def test_first_last_epoch(self):
        ts = _late_short_ts()
        assert ts.first_epoch == 2
        assert ts.last_epoch == 4
        empty = WorkloadTimeseries(pid=1, name="e")
        assert empty.first_epoch == -1
        assert empty.last_epoch == -1

    def test_aligned_fills_gaps_with_nan(self):
        al = _late_short_ts().aligned("ops", 8)
        assert np.isnan(al[[0, 1, 5, 6, 7]]).all()
        assert al[2:5].tolist() == [10.0, 20.0, 30.0]

    def test_aligned_custom_fill_and_clipping(self):
        ts = _late_short_ts()
        al = ts.aligned("fast_pages", 4, fill=0.0)
        # Epoch 4 lies outside the requested axis and is dropped.
        assert al.tolist() == [0.0, 0.0, 1.0, 2.0]


class TestRoundTrips:
    def test_timeseries_round_trip(self):
        ts = _late_short_ts()
        assert WorkloadTimeseries.from_dict(ts.to_dict()) == ts

    def test_from_dict_tolerates_missing_series(self):
        d = {"pid": 3, "name": "old"}
        ts = WorkloadTimeseries.from_dict(d)
        assert ts.pid == 3 and ts.epochs == [] and ts.quota == []

    def test_from_dict_requires_identity(self):
        with pytest.raises(KeyError, match="pid"):
            WorkloadTimeseries.from_dict({"name": "x"})
        with pytest.raises(KeyError, match="name"):
            WorkloadTimeseries.from_dict({"pid": 1})

    def test_experiment_result_round_trip_with_departed_pid(self):
        res = ExperimentResult(
            policy_name="vulcan", n_epochs=8,
            workloads={
                100: WorkloadTimeseries(pid=100, name="stayer",
                                        epochs=list(range(8)), ops=[1.0] * 8),
                101: _late_short_ts(),  # departed at epoch 5
            },
            free_fast_pages=[4] * 8, migration_cycles=[0.0] * 8,
        )
        back = ExperimentResult.from_dict(res.to_dict())
        assert back == res
        assert back.workloads[101].last_epoch == 4
        # JSON transport is exact, including the short series.
        back2 = ExperimentResult.from_dict(json.loads(json.dumps(res.to_dict())))
        assert back2 == res
