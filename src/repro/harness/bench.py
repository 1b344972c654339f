"""Peak-RSS measurement shared by the benchmarks.

The simulator benchmark is ``bench/run.py`` (see bench/README.md); its
per-repetition runner reads peak RSS through :func:`peak_rss_kb`.
"""

from __future__ import annotations

import resource
import sys


def _normalize_maxrss(maxrss: int, platform_name: str) -> int:
    """``getrusage().ru_maxrss`` in kB regardless of platform.

    POSIX leaves the unit unspecified: Linux reports kilobytes but
    macOS reports *bytes*, so raw values are 1024× off between the two
    — the unit bug this helper exists to pin down.  Pure function of
    its inputs so the conversion is unit-testable without faking
    ``resource``.
    """
    if platform_name == "darwin":
        return maxrss // 1024
    return maxrss


def peak_rss_kb() -> int:
    """Current process's peak RSS in kB (platform-normalized)."""
    return _normalize_maxrss(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, sys.platform
    )
