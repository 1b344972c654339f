"""Parameter sweep utilities.

A sweep runs the same experiment factory across a parameter grid and/or
several seeds and collects scalar metrics per cell — the machinery
behind sensitivity studies (fast-tier size, intensity ratios, promotion
budgets, ...).

Cells run in this process, one after another: grid cells in sorted-name
grid order, each cell's seeds in the order given.  A failing cell or
metric raises :class:`SweepCellError`.

Example
-------
::

    def factory(fast_gb, seed):
        cfg = MachineConfig(fast=TierConfig("fast", fast_gb * GiB, 70.0, 205.0), ...)
        exp = ColocationExperiment("vulcan", paper_colocation_mix(), machine_config=cfg, seed=seed)
        return exp.run(60)

    sweep = Sweep(metrics={"mc_ops": lambda r: r.by_name("memcached").mean_ops(30)})
    table = sweep.run(factory, grid={"fast_gb": [16, 32, 64]}, seeds=[1, 2, 3])
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.harness.experiment import ExperimentResult
from repro.metrics.stats import mean_ci95


class SweepCellError(RuntimeError):
    """A sweep cell failed; carries the cell's params and seed."""

    def __init__(self, message: str, *, params: tuple[tuple[str, Any], ...], seed: int) -> None:
        super().__init__(f"sweep cell {dict(params)} seed={seed}: {message}")
        self.params = params
        self.seed = seed


@dataclass(frozen=True)
class SweepCell:
    """One grid point's aggregated results."""

    params: tuple[tuple[str, Any], ...]
    metrics: dict[str, tuple[float, float]]  # name -> (mean, ci95)

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

    def run(
        self,
        factory: Callable[..., ExperimentResult],
        grid: dict[str, list[Any]],
        seeds: list[int] | None = None,
    ) -> list[SweepCell]:
        """Run ``factory(**params, seed=s)`` over the full grid.

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

        names = sorted(grid)
        self.cells = []
        for combo in itertools.product(*(grid[n] for n in names)):
            params = tuple(zip(names, combo))
            samples: dict[str, list[float]] = {m: [] for m in self.metrics}
            for seed in seeds:
                if self.progress is not None:
                    self.progress(f"{dict(params)} seed={seed}")
                try:
                    result = factory(**dict(params), seed=seed)
                except Exception as exc:
                    raise SweepCellError(
                        f"{type(exc).__name__}: {exc}", params=params, seed=seed
                    ) from exc
                for m, fn in self.metrics.items():
                    try:
                        samples[m].append(float(fn(result)))
                    except Exception as exc:
                        raise SweepCellError(
                            f"metric {m!r} failed: {type(exc).__name__}: {exc}",
                            params=params,
                            seed=seed,
                        ) from exc
            self.cells.append(SweepCell(
                params=params,
                metrics={m: mean_ci95(v) for m, v in samples.items()},
            ))
        return self.cells

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
