"""Co-location scenario builders (paper §5.3 / Table 2).

The headline experiment: Memcached starts warmed at t=0, PageRank joins
at t=50 s, Liblinear at t=110 s, each pinned to 8 dedicated cores with 8
threads.  RSS values follow Table 2 at the DESIGN.md §4 scale
(1 simulated page ≙ 10 MB).
"""

from __future__ import annotations

from repro.sim.config import SimulationConfig
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.pagerank import PageRankWorkload

#: Table 2 resident set sizes.
PAPER_RSS_BYTES = {
    "memcached": 51 * 10**9,
    "pagerank": 42 * 10**9,
    "liblinear": 69 * 10**9,
}

#: §5.3 start times, seconds.
PAPER_START_SECONDS = {
    "memcached": 0,
    "pagerank": 50,
    "liblinear": 110,
}

#: Relative memory-access intensity.  BE batch jobs saturate memory
#: bandwidth ("sustained and frequent memory accesses", Observation #1);
#: the LC service is request-bound.  Applied to accesses_per_thread.
INTENSITY = {
    "memcached": 1.0,
    "pagerank": 2.0,
    "liblinear": 3.0,
}


def paper_colocation_mix(
    sim: SimulationConfig | None = None,
    *,
    seed: int = 0,
    n_threads: int = 8,
    accesses_per_thread: int | None = None,
) -> list[Workload]:
    """The three-application mix of Figures 9 and 10.

    Start epochs derive from the paper's start seconds and the epoch
    length; RSS pages from Table 2 bytes and the page unit.
    """
    cfg = sim if sim is not None else SimulationConfig()
    apt = accesses_per_thread if accesses_per_thread is not None else 20_000

    def spec(name: str, service) -> WorkloadSpec:
        return WorkloadSpec(
            name=name,
            service=service,
            rss_pages=cfg.pages_for(PAPER_RSS_BYTES[name]),
            n_threads=n_threads,
            start_epoch=int(PAPER_START_SECONDS[name] / cfg.epoch_seconds),
            accesses_per_thread=int(apt * INTENSITY[name]),
        )

    from repro.core.classify import ServiceClass

    return [
        MemcachedWorkload(spec("memcached", ServiceClass.LC), seed=seed),
        PageRankWorkload(spec("pagerank", ServiceClass.BE), seed=seed + 1),
        LiblinearWorkload(spec("liblinear", ServiceClass.BE), seed=seed + 2),
    ]


def hugeheap_mix(
    sim: SimulationConfig,
    *,
    seed: int = 0,
    n_threads: int = 8,
    accesses_per_thread: int | None = None,
) -> list[Workload]:
    """The Table 2 mix, all admitted at t=0, for fine-grained page units.

    Used by the ``hugeheap`` workload of ``bench/run.py`` (at a 2 MB page
    unit, ~81k pages) and by the CI scale check (at ~150 kB, over a
    million pages, the size the chunked frame stores are built for).
    Starting every workload at epoch 0 makes the full heap fault in
    during the first epoch's admission, so even a one-epoch run builds
    the full store.
    """
    apt = accesses_per_thread if accesses_per_thread is not None else 20_000
    from repro.core.classify import ServiceClass

    def spec(name: str, service) -> WorkloadSpec:
        return WorkloadSpec(
            name=name,
            service=service,
            rss_pages=sim.pages_for(PAPER_RSS_BYTES[name]),
            n_threads=n_threads,
            start_epoch=0,
            accesses_per_thread=int(apt * INTENSITY[name]),
        )

    return [
        MemcachedWorkload(spec("memcached", ServiceClass.LC), seed=seed),
        PageRankWorkload(spec("pagerank", ServiceClass.BE), seed=seed + 1),
        LiblinearWorkload(spec("liblinear", ServiceClass.BE), seed=seed + 2),
    ]


def dilemma_pair(
    sim: SimulationConfig | None = None,
    *,
    seed: int = 0,
    n_threads: int = 8,
    accesses_per_thread: int | None = None,
) -> list[Workload]:
    """The Fig. 1 pair: Memcached (LC) + Liblinear (BE), both from t=0."""
    cfg = sim if sim is not None else SimulationConfig()
    apt = accesses_per_thread if accesses_per_thread is not None else 20_000
    from repro.core.classify import ServiceClass

    mc = MemcachedWorkload(
        WorkloadSpec(
            name="memcached",
            service=ServiceClass.LC,
            rss_pages=cfg.pages_for(PAPER_RSS_BYTES["memcached"]),
            n_threads=n_threads,
            start_epoch=0,
            accesses_per_thread=int(apt * INTENSITY["memcached"]),
        ),
        seed=seed,
    )
    ll = LiblinearWorkload(
        WorkloadSpec(
            name="liblinear",
            service=ServiceClass.BE,
            rss_pages=cfg.pages_for(PAPER_RSS_BYTES["liblinear"]),
            n_threads=n_threads,
            start_epoch=0,
            accesses_per_thread=int(apt * INTENSITY["liblinear"]),
        ),
        seed=seed + 1,
    )
    return [mc, ll]
