"""Fairness metrics: Jain's index and the paper's CFI (Eq. 4).

The paper evaluates fairness with the *FTHR-weighted Cumulative Jain's
Fairness Index*: each workload's cumulative efficiency-adjusted
allocation is::

    X_i = Σ_t  x_i(t) · FTHR_i(t)

(allocation at time t, discounted by how effectively it was used), and

    CFI = (Σ X_i)² / (N · Σ X_i²)

CFI = 1 means perfectly equal *effective* service; 1/N means one
workload received everything.
"""

from __future__ import annotations

import numpy as np


def jain_index(values) -> float:
    """Jain's fairness index over non-negative per-entity totals.

    Returns 1.0 for an empty or all-zero input (vacuously fair).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        return 1.0
    if np.any(x < 0):
        raise ValueError("Jain's index requires non-negative values")
    squares = float(np.sum(x * x))
    if squares < np.finfo(np.float64).tiny:
        # The squares went subnormal or to zero and lost their precision;
        # the index does not depend on scale, so rescale to a max of 1.
        peak = float(x.max())
        if peak == 0.0:
            return 1.0
        x = x / peak
        squares = float(np.sum(x * x))
    return float(np.sum(x)) ** 2 / (x.size * squares)


def cfi(alloc_timeseries: dict[int, np.ndarray], fthr_timeseries: dict[int, np.ndarray]) -> float:
    """Eq. 4: FTHR-weighted cumulative Jain index.

    Parameters
    ----------
    alloc_timeseries:
        pid → array of fast-memory allocations x_i(t) per epoch.
    fthr_timeseries:
        pid → array of FTHR_i(t) per epoch, same lengths per pid.

    Workloads active for different spans simply contribute their own
    epochs (arrays may have different lengths across pids).
    """
    if set(alloc_timeseries) != set(fthr_timeseries):
        raise ValueError("alloc and FTHR series must cover the same pids")
    totals = []
    for pid, alloc in alloc_timeseries.items():
        fthr = fthr_timeseries[pid]
        a = np.asarray(alloc, dtype=np.float64)
        f = np.asarray(fthr, dtype=np.float64)
        if a.shape != f.shape:
            raise ValueError(f"pid {pid}: alloc and FTHR lengths differ")
        totals.append(float(np.sum(a * f)))
    return jain_index(totals)


def windowed_cfi(result, window: int = 10) -> list[dict]:
    """Eq. 4 computed per time window, tolerating churn.

    Under a dynamic scenario the set of live workloads changes mid-run,
    so a single whole-run CFI conflates "unfair" with "absent".  This
    slices the run into ``[start, start+window)`` windows and scores
    each over only the workloads active *in that window* (a pid
    contributes the epochs it was actually present for, via the
    gap-tolerant :meth:`WorkloadTimeseries.aligned` view).

    ``result`` is duck-typed: anything with ``n_epochs`` and a
    ``workloads`` mapping of timeseries exposing ``aligned(name, n)``.
    Windows where fewer than one workload was active are skipped.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    n = result.n_epochs
    out: list[dict] = []
    for start in range(0, n, window):
        end = min(start + window, n)
        totals: list[float] = []
        pids: list[int] = []
        for pid, ts in result.workloads.items():
            alloc = ts.aligned("fast_pages", n)[start:end]
            fthr = ts.aligned("fthr_true", n)[start:end]
            present = ~np.isnan(alloc)
            if not present.any():
                continue
            pids.append(pid)
            totals.append(float(np.nansum(alloc * fthr)))
        if not pids:
            continue
        out.append({
            "start": start,
            "end": end,
            "pids": pids,
            "n_active": len(pids),
            "cfi": jain_index(totals),
        })
    return out


def churn_fairness(result, window: int = 10) -> dict:
    """Fairness-under-churn summary: windowed CFI plus headline stats.

    ``min_cfi`` is the interesting number — a scheduler can look fair
    on average while starving someone during the reshuffle right after
    a departure or capacity event.
    """
    windows = windowed_cfi(result, window=window)
    values = [w["cfi"] for w in windows]
    return {
        "window": window,
        "windows": windows,
        "mean_cfi": float(np.mean(values)) if values else 1.0,
        "min_cfi": float(np.min(values)) if values else 1.0,
    }
