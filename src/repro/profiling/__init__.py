"""Page-access profiling mechanisms (paper §2.1's taxonomy).

Every profiler consumes the *same* per-epoch access stream the simulated
hardware sees and produces per-page hotness estimates — but each with
its mechanism's characteristic distortions and costs:

* :class:`PebsProfiler` — hardware-event sampling: cheap, but misses
  pages at low sampling rates (false negatives at scale); Memtis's.
* :class:`HintFaultProfiler` — NUMA-hinting faults: exact recency for
  poisoned pages, but each hit costs the *application* a fault; TPP's.
* :class:`HybridProfiler` — FlexMem-style fusion of counter-based
  frequency and fault-based recency; Vulcan's default (§3.2).
"""

from repro.profiling.base import AccessBatch, Profiler, ProfilerStats
from repro.profiling.hintfault import HintFaultProfiler
from repro.profiling.hybrid import HybridProfiler
from repro.profiling.pebs import PebsProfiler

__all__ = [
    "AccessBatch",
    "Profiler",
    "ProfilerStats",
    "PebsProfiler",
    "HintFaultProfiler",
    "HybridProfiler",
]
