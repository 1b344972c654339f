"""Metrics: fairness (Jain / CFI), performance, and trial statistics."""

from repro.metrics.fairness import cfi, jain_index
from repro.metrics.perf import normalize_to_min, slowdown
from repro.metrics.stats import ema, mean_ci95
from repro.metrics.reporting import render_series, render_table

__all__ = [
    "cfi",
    "jain_index",
    "normalize_to_min",
    "slowdown",
    "ema",
    "mean_ci95",
    "render_series",
    "render_table",
]
