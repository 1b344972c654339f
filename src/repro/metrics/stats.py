"""Trial means with 95% confidence intervals."""

from __future__ import annotations

import math

import numpy as np

#: two-sided 97.5% normal quantile for CI95 with many samples
_Z975 = 1.959963984540054
#: t-distribution 97.5% quantiles for tiny trial counts (df 1..30)
_T975 = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
    2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
    2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
]


def mean_ci95(samples) -> tuple[float, float]:
    """Mean and 95% confidence half-width over independent trials.

    Uses Student's t for n ≤ 31 (the paper runs 10 trials), the normal
    approximation beyond.  A single sample yields a zero half-width.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size == 0:
        raise ValueError("no samples")
    mean = float(np.mean(x))
    if x.size == 1:
        return (mean, 0.0)
    sem = float(np.std(x, ddof=1)) / math.sqrt(x.size)
    df = x.size - 1
    q = _T975[df - 1] if df <= len(_T975) else _Z975
    return (mean, q * sem)
