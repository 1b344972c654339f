"""Performance normalization used by the Fig. 10 benches."""

from __future__ import annotations


def normalize_to_min(perf_by_system: dict[str, float]) -> dict[str, float]:
    """Paper Fig. 10(a): performance "normalized to the lowest-performing
    approach" — every value divided by the minimum."""
    if not perf_by_system:
        return {}
    floor = min(perf_by_system.values())
    if floor <= 0:
        raise ValueError("performance values must be positive")
    return {k: v / floor for k, v in perf_by_system.items()}
