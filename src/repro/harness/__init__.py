"""Experiment harness: the epoch-driven co-location simulator, sweeps
(serial or fanned out to workers, with an on-disk result cache), result
export, and the canonical recipes behind the CLI."""

from repro.harness.experiment import (
    ColocationExperiment,
    ExperimentResult,
    WorkloadTimeseries,
)

from repro.harness.cache import ResultCache
from repro.harness.export import to_json
from repro.harness.parallel import CellFailure, SweepCellError, derive_cell_seed
from repro.harness.sweeps import Sweep, SweepCell

__all__ = [
    "ColocationExperiment",
    "ExperimentResult",
    "WorkloadTimeseries",
    "Sweep",
    "SweepCell",
    "SweepCellError",
    "CellFailure",
    "ResultCache",
    "derive_cell_seed",
    "to_json",
]
