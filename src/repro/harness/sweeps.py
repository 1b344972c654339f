"""Parameter sweep utilities.

A sweep runs the same experiment factory across a parameter grid and/or
several seeds and collects scalar metrics per cell — the machinery
behind sensitivity studies (fast-tier size, intensity ratios, promotion
budgets, ...).

Sweeps can fan out across processes (``workers=N``) and memoize cell
results on disk (``cache_dir=...``); both paths aggregate bit-identical
numbers for the same seeds — see :mod:`repro.harness.parallel` and
:mod:`repro.harness.cache`.

Example
-------
::

    def factory(fast_gb, seed):
        cfg = MachineConfig(fast=TierConfig("fast", fast_gb * GiB, 70.0, 205.0), ...)
        exp = ColocationExperiment("vulcan", paper_colocation_mix(), machine_config=cfg, seed=seed)
        return exp.run(60)

    sweep = Sweep(metrics={"mc_ops": lambda r: r.by_name("memcached").mean_ops(30)})
    table = sweep.run(factory, grid={"fast_gb": [16, 32, 64]}, seeds=[1, 2, 3],
                      workers=4, cache_dir=".sweep-cache")
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.harness.cache import ResultCache
from repro.harness.experiment import ExperimentResult
from repro.harness.parallel import (
    CellFailure,
    CellOutcome,
    CellTask,
    SweepCellError,
    build_tasks,
    deserialize_result,
    execute_tasks,
)
from repro.metrics.stats import mean_ci95


@dataclass(frozen=True)
class SweepCell:
    """One grid point's aggregated results."""

    params: tuple[tuple[str, Any], ...]
    metrics: dict[str, tuple[float, float]]  # name -> (mean, ci95)
    failures: tuple[CellFailure, ...] = ()

    def param(self, name: str) -> Any:
        for k, v in self.params:
            if k == name:
                return v
        raise KeyError(name)

    def mean(self, metric: str) -> float:
        return self.metrics[metric][0]


@dataclass
class Sweep:
    """Grid × seeds sweep with scalar metric extraction."""

    metrics: dict[str, Callable[[ExperimentResult], float]]
    progress: Callable[[str], None] | None = None
    cells: list[SweepCell] = field(default_factory=list)
    errors: list[CellFailure] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0

    def run(
        self,
        factory: Callable[..., ExperimentResult],
        grid: dict[str, list[Any]],
        seeds: list[int] | None = None,
        *,
        workers: int = 1,
        cache_dir: str | Path | None = None,
        use_cache: bool = True,
        timeout: float | None = None,
        derived_seeds: bool = False,
        cache_extra: dict[str, Any] | None = None,
    ) -> list[SweepCell]:
        """Run ``factory(**params, seed=s)`` over the full grid.

        Parameters
        ----------
        workers:
            ``1`` (default) runs every cell in-process, serially, and a
            failing cell **raises** :class:`SweepCellError`.  ``N > 1``
            fans cells out across ``N`` forked workers; failing cells
            are recorded in :attr:`errors` (and on their cell's
            ``failures``) instead of aborting the sweep.  Aggregated
            metrics are bit-identical across worker counts.
        cache_dir:
            Directory for the on-disk result cache.  Completed (cell,
            seed) results are reused on the next run — a repeated or
            resumed sweep re-runs zero cells.  ``None`` disables
            caching.
        use_cache:
            With ``cache_dir`` set, ``False`` skips cache *reads* but
            still writes fresh results (forced recompute that reheals
            the cache).
        timeout:
            Per-cell wall-clock budget in seconds (parallel mode only);
            a cell exceeding it is terminated and recorded as a
            ``"timeout"`` failure.
        derived_seeds:
            Pass the factory a stable hash of (params, seed) instead of
            the raw seed, decorrelating RNG streams across grid cells.
            Identical in serial and parallel modes.
        cache_extra:
            Extra JSON-serializable key material (policy, mix, machine
            knobs...) distinguishing sweeps that share a factory.

        Returns (and stores) one :class:`SweepCell` per grid point, each
        aggregating all seeds with mean ± CI95.
        """
        if not self.metrics:
            raise ValueError("a sweep needs at least one metric")
        if not grid:
            raise ValueError("empty parameter grid")
        seeds = seeds if seeds is not None else [0]
        if not seeds:
            raise ValueError("need at least one seed")
        if workers < 1:
            raise ValueError("workers must be >= 1")

        names = sorted(grid)
        combos = list(itertools.product(*(grid[n] for n in names)))
        tasks = build_tasks(names, combos, seeds, derived_seeds=derived_seeds)

        cache = ResultCache(cache_dir) if cache_dir is not None else None
        outcomes: dict[int, CellOutcome] = {}

        # 1. warm-cache pass: restore every completed (cell, seed).
        to_run: list[CellTask] = []
        for task in tasks:
            payload = None
            if cache is not None and use_cache:
                payload = cache.get(self._cache_key(cache, factory, task, cache_extra))
            if payload is not None:
                outcomes[task.index] = CellOutcome(task=task, result=payload, cached=True)
                self._progress(task, "cached")
            else:
                to_run.append(task)
        if cache is not None:
            self.cache_hits += cache.hits
            self.cache_misses += cache.misses

        # 2. compute the rest.
        if workers == 1:
            for task in to_run:
                self._progress(task, "run")
                outcome = self._run_serial(factory, task)
                outcomes[task.index] = outcome
                self._store(cache, factory, task, outcome, cache_extra)
        else:
            def on_done(outcome: CellOutcome) -> None:
                status = "ok" if outcome.ok else outcome.failure.kind
                self._progress(outcome.task, status)
                self._store(cache, factory, outcome.task, outcome, cache_extra)

            outcomes.update(execute_tasks(
                to_run, factory, workers=workers, timeout=timeout, on_done=on_done,
            ))

        # 3. aggregate in task order — completion order never matters.
        self.cells = []
        self.errors = []
        for cell_index in range(len(combos)):
            cell_tasks = [t for t in tasks if t.cell_index == cell_index]
            samples: dict[str, list[float]] = {m: [] for m in self.metrics}
            failures: list[CellFailure] = []
            for task in cell_tasks:
                outcome = outcomes[task.index]
                if not outcome.ok:
                    failures.append(outcome.failure)
                    continue
                result = deserialize_result(outcome.result)
                for m, fn in self.metrics.items():
                    samples[m].append(self._extract(fn, m, result, task))
            self.errors.extend(failures)
            self.cells.append(SweepCell(
                params=cell_tasks[0].params,
                metrics={
                    m: mean_ci95(v) if v else (float("nan"), float("nan"))
                    for m, v in samples.items()
                },
                failures=tuple(failures),
            ))
        return self.cells

    # -- internals ---------------------------------------------------------------

    def _run_serial(self, factory: Callable[..., ExperimentResult], task: CellTask) -> CellOutcome:
        """The workers=1 degenerate case: in-process, failures raise."""
        from repro.harness.parallel import _serialize

        try:
            result = factory(**dict(task.params), seed=task.cell_seed)
        except Exception as exc:
            raise SweepCellError(
                f"{type(exc).__name__}: {exc}", params=task.params, seed=task.seed
            ) from exc
        return CellOutcome(task=task, result=_serialize(result))

    def _extract(
        self,
        fn: Callable[[ExperimentResult], float],
        metric: str,
        result: ExperimentResult,
        task: CellTask,
    ) -> float:
        try:
            return float(fn(result))
        except Exception as exc:
            raise SweepCellError(
                f"metric {metric!r} failed: {type(exc).__name__}: {exc}",
                params=task.params,
                seed=task.seed,
            ) from exc

    def _cache_key(self, cache, factory, task: CellTask, extra: dict | None) -> str:
        return cache.key_for(factory, dict(task.params), task.cell_seed, extra=extra)

    def _store(self, cache, factory, task: CellTask, outcome: CellOutcome, extra: dict | None) -> None:
        if cache is not None and outcome.ok and not outcome.cached:
            cache.put(self._cache_key(cache, factory, task, extra), outcome.result)

    def _progress(self, task: CellTask, status: str) -> None:
        if self.progress is not None:
            self.progress(f"{dict(task.params)} seed={task.seed} [{status}]")

    # -- read side ---------------------------------------------------------------

    def best(self, metric: str, maximize: bool = True) -> SweepCell:
        """The grid point optimizing ``metric``."""
        if not self.cells:
            raise RuntimeError("run() the sweep first")
        key = lambda c: c.mean(metric)
        return max(self.cells, key=key) if maximize else min(self.cells, key=key)

    def series(self, param: str, metric: str) -> tuple[list[Any], list[float]]:
        """(x, y) pairs for plotting ``metric`` against one parameter,
        averaging over the other parameters."""
        if not self.cells:
            raise RuntimeError("run() the sweep first")
        buckets: dict[Any, list[float]] = {}
        for cell in self.cells:
            buckets.setdefault(cell.param(param), []).append(cell.mean(metric))
        xs = sorted(buckets)
        return xs, [float(np.mean(buckets[x])) for x in xs]
