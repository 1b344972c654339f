"""Experiment harness: the epoch-driven co-location simulator, in-process
parameter sweeps, result export, and the canonical recipes behind the
CLI."""

from repro.harness.experiment import (
    ColocationExperiment,
    ExperimentResult,
    WorkloadTimeseries,
)

from repro.harness.export import to_json
from repro.harness.sweeps import Sweep, SweepCell, SweepCellError

__all__ = [
    "ColocationExperiment",
    "ExperimentResult",
    "WorkloadTimeseries",
    "Sweep",
    "SweepCell",
    "SweepCellError",
    "to_json",
]
