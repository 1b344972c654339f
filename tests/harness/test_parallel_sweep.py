"""Parallel sweep execution and the on-disk result cache.

The headline guarantee under test: serial and parallel sweeps aggregate
**bit-identical** metrics for the same grid and seeds, and a repeated
sweep against a warm cache re-runs zero cells (asserted through the
sweep's hit and miss counts and its progress lines).  Failure handling
differs by mode on purpose: ``workers=1`` raises a typed
:class:`SweepCellError`; ``workers>1`` records a structured
:class:`CellFailure` and keeps sweeping.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.harness import (
    CellFailure,
    ColocationExperiment,
    ResultCache,
    Sweep,
    SweepCellError,
    derive_cell_seed,
)
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.memcached import MemcachedWorkload

UNIT = 10**6


def micro_factory(fast_pages: int, seed: int):
    """A deliberately tiny experiment so grid cells cost milliseconds."""
    mc = MachineConfig(
        n_cores=8,
        fast=TierConfig(name="fast", capacity_bytes=fast_pages * UNIT, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=512 * UNIT, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )
    sim = SimulationConfig(page_unit_bytes=UNIT, epoch_seconds=0.5)
    wl = MemcachedWorkload(
        WorkloadSpec(name="w", service=ServiceClass.LC, rss_pages=128, n_threads=2, accesses_per_thread=1000),
        seed=seed,
    )
    exp = ColocationExperiment("memtis", [wl], machine_config=mc, sim=sim, seed=seed, cores_per_workload=4)
    return exp.run(3)


def failing_factory(fast_pages: int, seed: int):
    if seed == 2:
        raise ValueError(f"injected failure at fast_pages={fast_pages}")
    return micro_factory(fast_pages, seed)


def crashing_factory(fast_pages: int, seed: int):
    if seed == 2:
        os._exit(13)  # simulate a segfault/OOM-killed worker
    return micro_factory(fast_pages, seed)


def sleeping_factory(fast_pages: int, seed: int):
    if seed == 2:
        time.sleep(60.0)
    return micro_factory(fast_pages, seed)


METRICS = {
    "fthr": lambda r: float(np.mean(r.by_name("w").fthr_true[-2:])),
    "ops": lambda r: r.by_name("w").mean_ops(1),
}

GRID = {"fast_pages": [24, 96]}
SEEDS = [1, 2]


def run_sweep(workers: int, **kwargs):
    sweep = Sweep(metrics=dict(METRICS))
    cells = sweep.run(micro_factory, grid=GRID, seeds=SEEDS, workers=workers, **kwargs)
    return sweep, cells


def cell_data(cells):
    return [(c.params, c.metrics) for c in cells]


class TestDifferential:
    def test_serial_vs_parallel_identical(self):
        """The headline guarantee: exact float equality, not approx."""
        _, serial = run_sweep(workers=1)
        _, par2 = run_sweep(workers=2)
        _, par4 = run_sweep(workers=4)
        assert cell_data(serial) == cell_data(par2) == cell_data(par4)

    def test_parallel_respects_seed_order_in_aggregation(self):
        """Mean and CI95 come from samples in seed order regardless of
        which worker finishes first (same-value check is order-proof;
        this pins the structure too)."""
        sweep, cells = run_sweep(workers=4)
        assert [c.param("fast_pages") for c in cells] == GRID["fast_pages"]
        assert all(set(c.metrics) == set(METRICS) for c in cells)
        assert not sweep.errors


class TestCache:
    def test_cold_then_warm(self, tmp_path):
        n_tasks = len(GRID["fast_pages"]) * len(SEEDS)
        cold_lines: list[str] = []
        sweep1 = Sweep(metrics=dict(METRICS), progress=cold_lines.append)
        cells1 = sweep1.run(micro_factory, grid=GRID, seeds=SEEDS, workers=2, cache_dir=tmp_path)
        assert sweep1.cache_hits == 0
        assert sweep1.cache_misses == n_tasks
        assert sorted(line.rsplit(" ", 1)[1] for line in cold_lines) == ["[ok]"] * n_tasks

        # Warm: zero cells re-run, every task restored from cache.
        warm_lines: list[str] = []
        sweep2 = Sweep(metrics=dict(METRICS), progress=warm_lines.append)
        cells2 = sweep2.run(micro_factory, grid=GRID, seeds=SEEDS, workers=2, cache_dir=tmp_path)
        assert sweep2.cache_hits == n_tasks
        assert sweep2.cache_misses == 0
        assert [line.rsplit(" ", 1)[1] for line in warm_lines] == ["[cached]"] * n_tasks
        assert cell_data(cells1) == cell_data(cells2)

    def test_warm_cache_identical_in_serial_mode_too(self, tmp_path):
        _, cold = run_sweep(workers=1, cache_dir=tmp_path)
        sweep, warm = run_sweep(workers=1, cache_dir=tmp_path)
        assert sweep.cache_hits == 4 and sweep.cache_misses == 0
        assert cell_data(cold) == cell_data(warm)

    def test_resume_partial_cache(self, tmp_path):
        """Deleting some entries (an interrupted sweep) recomputes only
        the missing cells and still aggregates identical numbers."""
        _, cold = run_sweep(workers=2, cache_dir=tmp_path)
        entries = sorted(tmp_path.glob("*.json"))
        assert len(entries) == 4
        for victim in entries[:2]:
            victim.unlink()
        sweep, resumed = run_sweep(workers=2, cache_dir=tmp_path)
        assert sweep.cache_hits == 2
        assert sweep.cache_misses == 2
        assert cell_data(cold) == cell_data(resumed)

    def test_poisoned_cache_recomputes(self, tmp_path):
        """Corrupt entries are misses, not crashes — and get rewritten."""
        _, cold = run_sweep(workers=2, cache_dir=tmp_path)
        entries = sorted(tmp_path.glob("*.json"))
        entries[0].write_text("{ this is not json")
        entries[1].write_text(json.dumps({"v": 999, "weird": True}))
        probe = ResultCache(tmp_path)
        assert [probe.get(e.stem) is None for e in entries] == [True, True, False, False]
        assert (probe.corrupt, probe.misses, probe.hits) == (2, 2, 2)
        sweep, again = run_sweep(workers=2, cache_dir=tmp_path)
        assert cell_data(cold) == cell_data(again)
        assert sweep.cache_hits == 2 and sweep.cache_misses == 2
        # The rewrite healed the cache.
        sweep3, _ = run_sweep(workers=2, cache_dir=tmp_path)
        assert sweep3.cache_hits == 4

    def test_use_cache_false_recomputes_but_rewrites(self, tmp_path):
        run_sweep(workers=1, cache_dir=tmp_path)
        sweep, _ = run_sweep(workers=1, cache_dir=tmp_path, use_cache=False)
        assert sweep.cache_hits == 0
        cache = ResultCache(tmp_path)
        assert len(cache) == 4

    def test_cache_key_separates_factories_and_extras(self, tmp_path):
        cache = ResultCache(tmp_path)
        k1 = cache.key_for(micro_factory, {"fast_pages": 24}, 1)
        k2 = cache.key_for(failing_factory, {"fast_pages": 24}, 1)
        k3 = cache.key_for(micro_factory, {"fast_pages": 24}, 2)
        k4 = cache.key_for(micro_factory, {"fast_pages": 24}, 1, extra={"policy": "tpp"})
        assert len({k1, k2, k3, k4}) == 4
        assert k1 == cache.key_for(micro_factory, {"fast_pages": 24}, 1)


class TestFailures:
    def test_serial_raises_typed_error(self):
        sweep = Sweep(metrics=dict(METRICS))
        with pytest.raises(SweepCellError) as exc_info:
            sweep.run(failing_factory, grid=GRID, seeds=SEEDS, workers=1)
        err = exc_info.value
        assert err.params == (("fast_pages", 24),)
        assert err.seed == 2
        assert "injected failure" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_parallel_records_structured_failure(self):
        sweep = Sweep(metrics=dict(METRICS))
        cells = sweep.run(failing_factory, grid=GRID, seeds=SEEDS, workers=2)
        assert len(sweep.errors) == 2  # seed=2 fails in both cells
        for failure in sweep.errors:
            assert isinstance(failure, CellFailure)
            assert failure.kind == "exception"
            assert failure.error == "ValueError"
            assert failure.seed == 2
            assert "injected failure" in failure.message
            assert "failing_factory" in failure.traceback
        # Surviving seeds still aggregate; the cell carries its failures.
        for cell in cells:
            assert len(cell.failures) == 1
            assert np.isfinite(cell.mean("fthr"))

    def test_parallel_survives_worker_crash(self):
        sweep = Sweep(metrics=dict(METRICS))
        cells = sweep.run(crashing_factory, grid=GRID, seeds=SEEDS, workers=2)
        kinds = {f.kind for f in sweep.errors}
        assert kinds == {"crash"}
        assert len(sweep.errors) == 2
        assert all("13" in f.message for f in sweep.errors)
        assert all(np.isfinite(c.mean("ops")) for c in cells)

    def test_parallel_cell_timeout(self):
        sweep = Sweep(metrics=dict(METRICS))
        cells = sweep.run(
            sleeping_factory, grid={"fast_pages": [24]}, seeds=SEEDS, workers=2, timeout=5.0,
        )
        assert [f.kind for f in sweep.errors] == ["timeout"]
        assert sweep.errors[0].seed == 2
        assert np.isfinite(cells[0].mean("fthr"))  # seed 1 still aggregated

    def test_all_seeds_failed_yields_nan_cell(self):
        sweep = Sweep(metrics=dict(METRICS))
        cells = sweep.run(failing_factory, grid=GRID, seeds=[2], workers=2)
        assert all(np.isnan(c.mean("fthr")) for c in cells)
        assert len(sweep.errors) == 2


class TestSeedDerivation:
    def test_stable_and_param_sensitive(self):
        a = derive_cell_seed({"fast_pages": 24}, 1)
        assert a == derive_cell_seed({"fast_pages": 24}, 1)
        assert a == derive_cell_seed((("fast_pages", 24),), 1)  # dict/tuple agree
        assert a != derive_cell_seed({"fast_pages": 96}, 1)
        assert a != derive_cell_seed({"fast_pages": 24}, 2)
        assert 0 <= a < 2**63

    def test_derived_seeds_differential(self):
        s1 = Sweep(metrics=dict(METRICS))
        c1 = s1.run(micro_factory, grid=GRID, seeds=[1], workers=1, derived_seeds=True)
        s2 = Sweep(metrics=dict(METRICS))
        c2 = s2.run(micro_factory, grid=GRID, seeds=[1], workers=2, derived_seeds=True)
        assert cell_data(c1) == cell_data(c2)
        # And derived seeds actually change what the factory computes.
        _, raw = run_sweep(workers=1)
        assert cell_data(c1) != cell_data(raw)


class TestResultRoundTrip:
    def test_experiment_result_to_from_dict_lossless(self):
        from repro.harness import ExperimentResult

        result = micro_factory(24, seed=1)
        clone = ExperimentResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.policy_name == result.policy_name
        assert clone.n_epochs == result.n_epochs
        assert clone.free_fast_pages == result.free_fast_pages
        assert clone.migration_cycles == result.migration_cycles
        assert set(clone.workloads) == set(result.workloads)
        for pid, ts in result.workloads.items():
            assert clone.workloads[pid].to_dict() == ts.to_dict()
