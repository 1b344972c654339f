"""Export experiment results as JSON for external analysis.

:func:`to_json` turns an ``ExperimentResult`` into a nested dict
(JSON-serializable) that keeps the per-workload timeseries plus the
experiment-level series; ``repro run --json`` prints it.
"""

from __future__ import annotations

from typing import Any

from repro.harness.experiment import ExperimentResult

_COLUMNS = (
    "epoch",
    "ops",
    "avg_access_cycles",
    "fast_pages",
    "rss_pages",
    "fthr_true",
    "hot_pages",
    "hot_in_fast",
    "cold_in_fast",
    "promotions",
    "demotions",
    "stall_cycles",
    "fthr_policy",
    "gpt",
    "quota",
)


def to_json(result: ExperimentResult) -> dict[str, Any]:
    """Nested JSON-serializable structure of the full result."""
    return {
        "policy": result.policy_name,
        "n_epochs": result.n_epochs,
        "free_fast_pages": list(result.free_fast_pages),
        "migration_cycles": list(result.migration_cycles),
        "workloads": {
            ts.name: {
                "pid": ts.pid,
                **{col: list(getattr(ts, col if col != "epoch" else "epochs")) for col in _COLUMNS},
            }
            for ts in result.workloads.values()
        },
    }
