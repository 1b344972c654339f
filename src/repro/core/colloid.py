"""Colloid-style latency balancing (paper §3.6 future work).

Colloid (SOSP'24) observes that tiering by hotness is wrong when the
fast tier's *loaded* latency approaches the slow tier's: under bandwidth
contention, promoting more hot pages makes the fast tier slower for
everyone.  The paper proposes integrating this with Vulcan: "suspend the
migration process of co-located workloads when the fast tier's access
latency no longer offers significant advantages over alternate tiers".

:class:`LatencyBalancer` implements that decision with hysteresis:
migration is suspended when the loaded-latency advantage falls below
``suspend_margin`` and resumed once it recovers above
``resume_margin`` (> suspend_margin, so the decision doesn't flap).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class LatencyBalancer:
    """Hysteretic migrate/suspend decision from loaded tier latencies.

    Parameters
    ----------
    suspend_margin:
        Migration suspends when ``slow_latency / fast_latency`` drops
        below ``1 + suspend_margin`` (fast tier barely faster).
    resume_margin:
        Migration resumes when the ratio recovers above
        ``1 + resume_margin``.
    """

    suspend_margin: float = 0.10
    resume_margin: float = 0.25
    enabled: bool = True
    suspended: bool = field(default=False, init=False)
    suspensions: int = field(default=0, init=False)
    resumes: int = field(default=0, init=False)
    _last_ratio: float = field(default=float("inf"), init=False)

    def __post_init__(self) -> None:
        if self.suspend_margin < 0:
            raise ValueError("suspend_margin must be non-negative")
        if self.resume_margin <= self.suspend_margin:
            raise ValueError("resume_margin must exceed suspend_margin (hysteresis)")

    def update(self, fast_loaded_cycles: float, slow_loaded_cycles: float) -> bool:
        """Feed this epoch's loaded latencies; returns ``True`` when
        migration should proceed."""
        if fast_loaded_cycles <= 0 or slow_loaded_cycles <= 0:
            raise ValueError("latencies must be positive")
        if not self.enabled:
            return True
        ratio = slow_loaded_cycles / fast_loaded_cycles
        self._last_ratio = ratio
        if self.suspended:
            if ratio >= 1.0 + self.resume_margin:
                self.suspended = False
                self.resumes += 1
        else:
            if ratio < 1.0 + self.suspend_margin:
                self.suspended = True
                self.suspensions += 1
        return not self.suspended

    @property
    def last_advantage_ratio(self) -> float:
        """Most recent slow/fast loaded-latency ratio."""
        return self._last_ratio
