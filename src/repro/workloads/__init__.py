"""Application substrate: synthetic workloads with the paper's shapes.

The paper's applications (Table 2) can't ship with a reproduction, so
each is replaced by a generator with the same access *shape* at the
DESIGN.md §4 scale factor:

* :class:`MemcachedWorkload` — LC key-value store: 90% GET / 10% SET,
  a hot key set receiving 90% of traffic, bursty issue rate.
* :class:`PageRankWorkload` — BE graph analytics: degree-skewed random
  access over adjacency data plus sequential rank-vector sweeps.
* :class:`LiblinearWorkload` — BE linear classification over a
  KDD12-sized design matrix: relentless streaming scans, the fast-tier
  monopolist of Observation #1.
* :class:`MicrobenchWorkload` — the Nomad-style WSS/RSS Zipfian
  microbenchmark used by Fig. 8.
"""

from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.mixes import PAPER_RSS_BYTES, paper_colocation_mix
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.zipf import ZipfSampler

__all__ = [
    "Workload",
    "WorkloadSpec",
    "ZipfSampler",
    "MemcachedWorkload",
    "PageRankWorkload",
    "LiblinearWorkload",
    "MicrobenchWorkload",
    "paper_colocation_mix",
    "PAPER_RSS_BYTES",
]
