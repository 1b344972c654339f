"""Tiered-memory QoS metrics: GPT, FTHR, and demand (paper §3.3).

* **GPT** (Guaranteed Performance Target), Eq. before (1)::

      GPT_i = min(GFMC / RSS_i, 1)

  where ``GFMC`` (Guaranteed Fast Memory Capacity) is the fast tier
  split evenly over the ``n`` co-located workloads.  GPT is the QoS
  baseline: the fraction of a workload's resident set its fair share of
  fast memory could cover.

* **FTHR** (Fast-Tier Hit Ratio), Eq. (1)-(2): per epoch, ``H̄_{i,t}``
  is the pooled ratio of the epoch's fast hits over all its hits (fast
  plus slow; Eq. 1's ``N`` samples, one per thread, summed), folded into
  an EMA with α = 0.8 — responsive but stable.

* **demand**, Eq. (3)::

      demand_i = alloc_i + (GPT_i - FTHR_i) · RSS_i · log²(RSS_i)

  A workload whose hit ratio trails its target asks for more; one
  exceeding it offers the surplus back.  The log² factor scales the
  correction with footprint.  We clamp demand to ``[0, RSS_i]`` — no
  workload can use more fast memory than its resident set — which the
  paper leaves implicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Eq. (2) EMA weight on the newest sample window ("empirically 0.8").
FTHR_ALPHA = 0.8


def gpt_for(rss_pages: int, fast_capacity_pages: int, n_workloads: int) -> float:
    """Guaranteed Performance Target for one workload.

    ``GFMC = fast_capacity / n``; GPT saturates at 1 when the fair share
    covers the whole resident set.
    """
    if rss_pages <= 0:
        return 1.0
    if n_workloads <= 0:
        raise ValueError("need at least one workload")
    gfmc = fast_capacity_pages / n_workloads
    return min(gfmc / rss_pages, 1.0)


#: Release-side headroom: a satisfied BE workload is shrunk toward
#: FTHR ≈ BE_TARGET_KAPPA × GPT instead of the bare GPT floor.
BE_TARGET_KAPPA = 2.0
#: Margin kept above a satisfied LC workload's measured hot set.
LC_HOT_SET_MARGIN = 1.15


def demand_pages(
    alloc_pages: int,
    gpt: float,
    fthr: float,
    rss_pages: int,
    *,
    hot_set_pages: int | None = None,
    latency_critical: bool = True,
) -> int:
    """Fast-memory demand: Eq. (3) growth with a differentiated release.

    Eq. (3) reads ``demand = alloc + (GPT - FTHR)·RSS·log²(RSS)``.  The
    log² factor is so large that, after clamping to ``[0, RSS]``, the
    equation acts as a direction signal: *under target → demand
    everything; over target → demand nothing*.  Taken literally the
    release side would demote a workload's genuinely hot pages until its
    hit ratio collapses to the GPT floor — the opposite of "leave no one
    behind".

    Reproduction decision (documented in DESIGN.md): the growth side is
    Eq. (3) verbatim.  The release side is differentiated by service
    class, mirroring §3.3's "differentiated QoS guarantees":

    * **LC** — a satisfied LC workload donates only the allocation
      beyond its measured hot set (×1.15 margin): fairness never
      cannibalizes pages an LC service is actually hitting.
    * **BE** — a satisfied BE workload is shrunk geometrically toward a
      hit-ratio target of ``κ·GPT`` (κ = 2): it keeps comfortable
      headroom above its guarantee but releases surplus that fairness
      can redistribute to workloads extracting less value per page.
    """
    if rss_pages <= 0:
        return 0
    if fthr < gpt:
        log2rss = math.log2(max(rss_pages, 2))
        raw = alloc_pages + (gpt - fthr) * rss_pages * log2rss * log2rss
        return int(min(max(raw, 0.0), float(rss_pages)))
    if latency_critical:
        if hot_set_pages is None:
            return alloc_pages
        keep = int(round(hot_set_pages * LC_HOT_SET_MARGIN))
        return max(min(alloc_pages, keep, rss_pages), 0)
    target = min(BE_TARGET_KAPPA * gpt, 0.95)
    if fthr <= target or fthr <= 0.0:
        return alloc_pages  # within headroom: hold
    return max(int(alloc_pages * target / fthr), 0)


@dataclass
class WorkloadQos:
    """Per-workload QoS state evolved epoch by epoch."""

    pid: int
    rss_pages: int = 0
    gpt: float = 1.0
    fthr: float = 0.0
    prev_window_avg: float = 0.0
    _initialized: bool = False
    #: fast and slow accesses summed over the current window
    _fast: int = 0
    _slow: int = 0

    def add_sample(self, fast_accesses: int, slow_accesses: int) -> None:
        """Add (fast, slow) access counts to the current window (Eq. 1)."""
        if fast_accesses < 0 or slow_accesses < 0:
            raise ValueError("access counts must be non-negative")
        self._fast += fast_accesses
        self._slow += slow_accesses

    def window_average(self) -> float:
        """H̄_{i,t}: ratio of fast accesses over the sample window."""
        total = self._fast + self._slow
        return self._fast / total if total else 0.0

    def end_window(self) -> float:
        """Fold the window into FTHR via Eq. (2) and reset samples."""
        h_t = self.window_average()
        if not self._initialized:
            # First window: no history to blend with.
            self.fthr = h_t
            self._initialized = True
        else:
            self.fthr = FTHR_ALPHA * h_t + (1.0 - FTHR_ALPHA) * self.prev_window_avg
        self.prev_window_avg = h_t
        self._fast = self._slow = 0
        return self.fthr

    def demand(
        self,
        alloc_pages: int,
        hot_set_pages: int | None = None,
        *,
        latency_critical: bool = True,
    ) -> int:
        return demand_pages(
            alloc_pages,
            self.gpt,
            self.fthr,
            self.rss_pages,
            hot_set_pages=hot_set_pages,
            latency_critical=latency_critical,
        )


class QosTracker:
    """QoS state for every managed workload."""

    def __init__(self, fast_capacity_pages: int) -> None:
        if fast_capacity_pages <= 0:
            raise ValueError("fast capacity must be positive")
        self.fast_capacity_pages = fast_capacity_pages
        self.workloads: dict[int, WorkloadQos] = {}

    def register(self, pid: int, rss_pages: int) -> WorkloadQos:
        if pid in self.workloads:
            raise ValueError(f"pid {pid} already tracked")
        qos = WorkloadQos(pid=pid, rss_pages=rss_pages)
        self.workloads[pid] = qos
        self._refresh_gpts()
        return qos

    def unregister(self, pid: int) -> None:
        self.workloads.pop(pid, None)
        self._refresh_gpts()

    def set_rss(self, pid: int, rss_pages: int) -> None:
        """RSS changes (growth, phase change) re-derive every GPT."""
        self.workloads[pid].rss_pages = rss_pages
        self._refresh_gpts()

    def set_capacity(self, fast_capacity_pages: int) -> None:
        """Fast-tier capacity changed (frames offlined/onlined).

        GFMC — and with it every workload's GPT — is a function of the
        *online* fast capacity, so a capacity event reshapes all
        guarantees immediately.
        """
        if fast_capacity_pages <= 0:
            raise ValueError("fast capacity must be positive")
        self.fast_capacity_pages = fast_capacity_pages
        self._refresh_gpts()

    def _refresh_gpts(self) -> None:
        n = len(self.workloads)
        if n == 0:
            return
        for qos in self.workloads.values():
            qos.gpt = gpt_for(qos.rss_pages, self.fast_capacity_pages, n)

    def end_epoch(self) -> dict[int, float]:
        """Close every workload's sample window; returns pid → FTHR."""
        return {pid: qos.end_window() for pid, qos in self.workloads.items()}

    def demands(
        self,
        allocs: dict[int, int],
        hot_sets: dict[int, int] | None = None,
        latency_critical: dict[int, bool] | None = None,
    ) -> dict[int, int]:
        """Eq. (3) demands for all workloads given current allocations,
        per-workload hot-set size estimates, and service classes."""
        hs = hot_sets or {}
        lc = latency_critical or {}
        return {
            pid: qos.demand(allocs.get(pid, 0), hs.get(pid), latency_critical=lc.get(pid, True))
            for pid, qos in self.workloads.items()
        }
