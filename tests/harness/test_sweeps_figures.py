"""Sweep utility."""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.harness import ColocationExperiment, Sweep, SweepCellError
from repro.sim.config import MachineConfig, SimulationConfig, TierConfig
from repro.workloads.base import WorkloadSpec
from repro.workloads.memcached import MemcachedWorkload


def tiny_factory(fast_pages: int, seed: int):
    unit = 10**6
    mc = MachineConfig(
        n_cores=8,
        fast=TierConfig(name="fast", capacity_bytes=fast_pages * unit, load_latency_ns=70.0, bandwidth_gbps=205.0),
        slow=TierConfig(name="slow", capacity_bytes=1024 * unit, load_latency_ns=162.0, bandwidth_gbps=25.0),
    )
    sim = SimulationConfig(page_unit_bytes=unit, epoch_seconds=0.5)
    wl = MemcachedWorkload(
        WorkloadSpec(name="w", service=ServiceClass.LC, rss_pages=256, n_threads=2, accesses_per_thread=2000),
        seed=seed,
    )
    exp = ColocationExperiment("memtis", [wl], machine_config=mc, sim=sim, seed=seed, cores_per_workload=4)
    return exp.run(4)


def failing_factory(fast_pages: int, seed: int):
    if seed == 2:
        raise ValueError(f"injected failure at fast_pages={fast_pages}")
    return tiny_factory(fast_pages, seed)


class TestSweep:
    def metric(self):
        return {"fthr": lambda r: float(np.mean(r.by_name("w").fthr_true[-2:]))}

    def test_grid_times_seeds(self):
        sweep = Sweep(metrics=self.metric())
        cells = sweep.run(tiny_factory, grid={"fast_pages": [32, 128]}, seeds=[1, 2])
        assert len(cells) == 2
        for cell in cells:
            assert "fthr" in cell.metrics
            mean, ci = cell.metrics["fthr"]
            assert 0.0 <= mean <= 1.0

    def test_more_fast_memory_helps(self):
        sweep = Sweep(metrics=self.metric())
        sweep.run(tiny_factory, grid={"fast_pages": [32, 256]}, seeds=[1])
        xs, ys = sweep.series("fast_pages", "fthr")
        assert xs == [32, 256]
        assert ys[1] > ys[0]

    def test_best(self):
        sweep = Sweep(metrics=self.metric())
        sweep.run(tiny_factory, grid={"fast_pages": [32, 256]}, seeds=[1])
        assert sweep.best("fthr").param("fast_pages") == 256
        assert sweep.best("fthr", maximize=False).param("fast_pages") == 32

    def test_progress_callback(self):
        """Cells run in sorted-name grid order, seeds in the order given."""
        seen = []
        sweep = Sweep(metrics=self.metric(), progress=seen.append)
        sweep.run(
            lambda fast_pages, b, seed: tiny_factory(fast_pages, seed),
            grid={"fast_pages": [128, 32], "b": [0]},
            seeds=[2, 1],
        )
        assert seen == [
            "{'b': 0, 'fast_pages': 128} seed=2",
            "{'b': 0, 'fast_pages': 128} seed=1",
            "{'b': 0, 'fast_pages': 32} seed=2",
            "{'b': 0, 'fast_pages': 32} seed=1",
        ]

    def test_failing_cell_raises_typed_error(self):
        sweep = Sweep(metrics=self.metric())
        with pytest.raises(SweepCellError) as exc_info:
            sweep.run(failing_factory, grid={"fast_pages": [32, 128]}, seeds=[1, 2])
        err = exc_info.value
        assert err.params == (("fast_pages", 32),)
        assert err.seed == 2
        assert "injected failure" in str(err)
        assert isinstance(err.__cause__, ValueError)

    def test_failing_metric_raises_typed_error(self):
        sweep = Sweep(metrics={"boom": lambda r: r.by_name("missing").mean_ops()})
        with pytest.raises(SweepCellError, match="metric 'boom' failed: KeyError") as exc_info:
            sweep.run(tiny_factory, grid={"fast_pages": [32]}, seeds=[1])
        assert (exc_info.value.params, exc_info.value.seed) == ((("fast_pages", 32),), 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Sweep(metrics={}).run(tiny_factory, grid={"fast_pages": [1]})
        sweep = Sweep(metrics=self.metric())
        with pytest.raises(ValueError):
            sweep.run(tiny_factory, grid={})
        with pytest.raises(ValueError):
            sweep.run(tiny_factory, grid={"fast_pages": [32]}, seeds=[])
        with pytest.raises(RuntimeError):
            Sweep(metrics=self.metric()).best("fthr")
