"""Vulcan's contribution: the four innovations of §3.

* :mod:`repro.core.qos` — GPT / FTHR / demand estimation (§3.3, Eq. 1-3)
* :mod:`repro.core.cbfrp` — credit-based fair partitioning (Algorithm 1)
* :mod:`repro.core.classify` — LC/BE and page-class classification
* :mod:`repro.core.queues` — four priority queues + MLFQ (Table 1)
* :mod:`repro.core.bias` — biased promotion/demotion selection (§3.5)
* :mod:`repro.core.daemon` — the per-workload migration manager (§3.2),
  which holds the CBFRP quotas it enforces (§3.3)
"""

from repro.core.bias import BiasedMigrationPolicy, MigrationPlan, Selection
from repro.core.cbfrp import CbfrpState, CreditLedger, run_cbfrp
from repro.core.classify import PageClass, ServiceClass, classify_page
from repro.core.colloid import LatencyBalancer
from repro.core.daemon import VulcanDaemon
from repro.core.qos import QosTracker, WorkloadQos, demand_pages, gpt_for

__all__ = [
    "BiasedMigrationPolicy",
    "MigrationPlan",
    "Selection",
    "CbfrpState",
    "CreditLedger",
    "run_cbfrp",
    "PageClass",
    "ServiceClass",
    "classify_page",
    "VulcanDaemon",
    "QosTracker",
    "WorkloadQos",
    "demand_pages",
    "gpt_for",
    "LatencyBalancer",
]
