"""Metrics: fairness (Jain / CFI), performance, and trial statistics."""

from repro.metrics.fairness import cfi, jain_index
from repro.metrics.perf import normalize_to_min
from repro.metrics.stats import mean_ci95
from repro.metrics.reporting import render_series, render_table

__all__ = [
    "cfi",
    "jain_index",
    "normalize_to_min",
    "mean_ci95",
    "render_series",
    "render_table",
]
