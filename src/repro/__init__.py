"""repro — a full reproduction of Vulcan (ICPP'25).

"Leave No One Behind: Towards Fair and Efficient Tiered Memory
Management for Multi-Applications", Tang, Wang, Wang & Wu, ICPP 2025.

The package layers:

* :mod:`repro.sim` — machine/simulation configuration and units;
* :mod:`repro.machine` — cores and IPIs, memory tiers, interconnect;
* :mod:`repro.mm` — PTEs, the page table, per-thread replication,
  frame allocation, LRU pagevecs, the 5-phase migration engine and its
  paper-calibrated cost model, THP, page shadowing;
* :mod:`repro.profiling` — PEBS / hint-fault / hybrid profilers over
  dense per-pid heat arrays;
* :mod:`repro.core` — Vulcan: QoS (GPT/FTHR/demand), CBFRP, Table 1
  page classes, priority queues, biased migration, the daemon;
* :mod:`repro.policies` — TPP, Memtis, Nomad, static baselines, and
  Vulcan behind one policy interface;
* :mod:`repro.workloads` — Memcached/PageRank/Liblinear-shaped
  generators and the Nomad-style microbenchmark;
* :mod:`repro.metrics` — Jain / CFI fairness, perf normalization;
* :mod:`repro.obs` — structured tracing, the Chrome trace writer and
  reader, and the trace summary (cycle-clocked, deterministic, off by
  default);
* :mod:`repro.harness` — the epoch-driven co-location simulator.

Quickstart::

    from repro.harness import ColocationExperiment
    from repro.workloads.mixes import paper_colocation_mix

    exp = ColocationExperiment("vulcan", paper_colocation_mix())
    result = exp.run(n_epochs=60)
    print(result.by_name("memcached").mean_ops())
"""

from repro.harness import ColocationExperiment, ExperimentResult
from repro.metrics.fairness import cfi, jain_index
from repro.policies import POLICY_REGISTRY
from repro.sim.config import MachineConfig, SimulationConfig, paper_machine_config

__version__ = "1.0.0"

__all__ = [
    "ColocationExperiment",
    "ExperimentResult",
    "POLICY_REGISTRY",
    "MachineConfig",
    "SimulationConfig",
    "paper_machine_config",
    "cfi",
    "jain_index",
    "__version__",
]
