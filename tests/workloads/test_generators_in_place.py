"""In-place generators against the per-thread generators they replaced.

Each generator now writes a thread's traffic straight into its slice of
the plan buffer, with the VMA base and the hot-set permutation folded
into its sampler's items.  The references below are the old
``_thread_access`` bodies, each returning fresh ``(vpns, is_write)``
arrays, over an independent Zipf reference (``np.searchsorted`` on the
CDF, then the permutation) — so the pin covers the sampler tables too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.mm.address_space import Vma
from repro.workloads.base import WorkloadSpec
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.microbench import MicrobenchWorkload
from repro.workloads.pagerank import PageRankWorkload


class RefZipf:
    """Bounded Zipf by ``searchsorted``, optionally permuted."""

    def __init__(self, n: int, s: float, perm_seed: int | None = None) -> None:
        cdf = np.cumsum(np.arange(1, n + 1, dtype=np.float64) ** (-s))
        self.cdf = cdf / cdf[-1]
        self.perm = None if perm_seed is None else np.random.default_rng(perm_seed).permutation(n)

    def sample(self, size: int, rng) -> np.ndarray:
        if size == 0:
            return np.empty(0, dtype=np.int64)
        ranks = np.searchsorted(self.cdf, rng.random(size), side="right")
        return ranks if self.perm is None else self.perm[ranks]


def ref_pagerank(wl, tid, n, epoch):
    sampler = RefZipf(wl._adj_pages, wl.degree_skew, perm_seed=wl.seed)
    rng = np.random.default_rng((wl.seed, epoch, tid, 7))
    n_gather = int(n * wl.gather_fraction)
    n_sweep = n - n_gather
    gather_vpns = wl.vma.start_vpn + sampler.sample(n_gather, rng)
    gather_writes = np.zeros(n_gather, dtype=bool)
    slice_pages = max(wl._rank_pages // wl.spec.n_threads, 1)
    slice_start = wl.vma.start_vpn + wl._adj_pages + tid * slice_pages
    slice_end = min(slice_start + slice_pages, wl.vma.end_vpn)
    span = max(slice_end - slice_start, 1)
    pos = (epoch * n_sweep + np.arange(n_sweep)) % span
    sweep_vpns = slice_start + pos
    sweep_writes = rng.random(n_sweep) < 0.5
    return np.concatenate([gather_vpns, sweep_vpns]), np.concatenate([gather_writes, sweep_writes])


def ref_liblinear(wl, tid, n, epoch):
    sampler = RefZipf(wl._feature_pages, wl.feature_skew, perm_seed=wl.seed)
    rng = np.random.default_rng((wl.seed, epoch, tid, 13))
    n_feat = int(n * wl.feature_access_frac)
    n_scan = n - n_feat
    shard_pages = max(wl._data_pages // wl.spec.n_threads, 1)
    shard_start = wl.vma.start_vpn + wl._feature_pages + tid * shard_pages
    shard_end = min(shard_start + shard_pages, wl.vma.end_vpn)
    span = max(shard_end - shard_start, 1)
    pos = (epoch * n_scan + np.arange(n_scan)) % span
    scan_vpns = shard_start + pos
    scan_writes = np.zeros(n_scan, dtype=bool)
    feat_vpns = wl.vma.start_vpn + sampler.sample(n_feat, rng)
    feat_writes = rng.random(n_feat) < wl.feature_write_fraction
    return np.concatenate([scan_vpns, feat_vpns]), np.concatenate([scan_writes, feat_writes])


def ref_memcached(wl, tid, n, epoch):
    rss = wl.spec.rss_pages
    n_hot_pages = max(int(rss * wl.hot_frac), 1)
    perm = np.random.default_rng(wl.seed).permutation(rss).astype(np.int64)
    hot_pages = perm[:n_hot_pages]
    cold_pages = perm[n_hot_pages:] if n_hot_pages < rss else perm[:0]
    sampler = RefZipf(n_hot_pages, 0.3)
    rng = np.random.default_rng((wl.seed, epoch, tid))
    to_hot = rng.random(n) < wl.hot_mass
    n_hot = int(to_hot.sum())
    offsets = np.empty(n, dtype=np.int64)
    offsets[to_hot] = hot_pages[sampler.sample(n_hot, rng)]
    n_cold = n - n_hot
    if n_cold:
        if cold_pages.size:
            offsets[~to_hot] = cold_pages[rng.integers(0, cold_pages.size, size=n_cold)]
        else:
            offsets[~to_hot] = hot_pages[rng.integers(0, hot_pages.size, size=n_cold)]
    vpns = wl.vma.start_vpn + offsets
    writes = rng.random(n) >= wl.get_fraction
    return vpns, writes


def ref_microbench(wl, tid, n, epoch):
    nt = wl.spec.n_threads
    support = wl._wss if wl.shared_threads else max(wl._wss // nt, 1)
    sampler = RefZipf(support, wl.zipf_skew, perm_seed=wl.seed)
    rng = np.random.default_rng((wl.seed, epoch, tid, 29))
    offsets = sampler.sample(n, rng)
    if wl.shared_threads:
        vpns = wl.vma.start_vpn + offsets
    else:
        vpns = wl.vma.start_vpn + tid * max(wl._wss // nt, 1) + offsets
    writes = rng.random(n) >= wl.read_ratio
    return vpns, writes


def _spec(rss: int, threads: int, apt: int) -> WorkloadSpec:
    return WorkloadSpec(name="w", service=ServiceClass.BE, rss_pages=rss, n_threads=threads, accesses_per_thread=apt)


CASES = {
    "pagerank": (PageRankWorkload, {}, ref_pagerank),
    "pagerank_skewed": (PageRankWorkload, {"degree_skew": 1.3, "gather_fraction": 0.6}, ref_pagerank),
    "liblinear": (LiblinearWorkload, {}, ref_liblinear),
    "liblinear_all_features": (LiblinearWorkload, {"feature_access_frac": 1.0}, ref_liblinear),
    "memcached": (MemcachedWorkload, {}, ref_memcached),
    "memcached_all_hot": (MemcachedWorkload, {"hot_frac": 1.0}, ref_memcached),
    "microbench": (MicrobenchWorkload, {"wss_pages": 700}, ref_microbench),
    "microbench_private": (MicrobenchWorkload, {"wss_pages": 700, "shared_threads": False}, ref_microbench),
}


def _bound(name: str, seed: int, rss: int = 3000, threads: int = 5, apt: int = 2001):
    cls, kwargs, ref = CASES[name]
    wl = cls(_spec(rss, threads, apt), seed=seed, **kwargs)
    wl.bind(3, Vma(start_vpn=0x5000, n_pages=rss))
    return wl, ref


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [0, 3])
def test_thread_slices_match_old_generator(name, seed):
    wl, ref = _bound(name, seed)
    for epoch in (0, 1, 7):
        for tid in range(wl.spec.n_threads):
            for n in (0, 1, 17, 2001):
                # the slice sits inside a larger buffer: nothing outside it moves
                vpns = np.full(n + 4, -7, dtype=np.int64)
                writes = np.ones(n + 4, dtype=bool)
                m = wl._write_thread(tid, epoch, vpns[2 : 2 + n], writes[2 : 2 + n])
                want_v, want_w = ref(wl, tid, n, epoch)
                assert m == n == want_v.size
                np.testing.assert_array_equal(vpns[2 : 2 + n], want_v)
                np.testing.assert_array_equal(writes[2 : 2 + n], want_w)
                assert vpns[:2].tolist() == vpns[n + 2 :].tolist() == [-7, -7]
                assert writes[:2].all() and writes[n + 2 :].all()


@pytest.mark.parametrize("name", sorted(CASES))
def test_plans_match_old_generator_across_reshapes(name):
    """Whole plans, buffer reuse and the issue-rate draws included; a
    reshape and a reseed rebuild the folded tables."""
    wl, ref = _bound(name, seed=2)
    twin, _ = _bound(name, seed=2)
    for epoch in range(6):
        if epoch == 3:
            attrs = {"hot_frac": 0.2} if isinstance(wl, MemcachedWorkload) else {}
            wl.reshape(attrs, reseed=11)
            twin.reshape(attrs, reseed=11)
        issue, plan = wl.planned_epoch(epoch)
        want_issue = twin.issue_rate(epoch)
        n = int(twin.spec.accesses_per_thread * twin.issue_rate(epoch))
        parts = [ref(twin, tid, n, epoch) for tid in range(twin.spec.n_threads)]
        assert issue == want_issue
        np.testing.assert_array_equal(plan.vpns, np.concatenate([p[0] for p in parts]))
        np.testing.assert_array_equal(plan.is_write, np.concatenate([p[1] for p in parts]))
        np.testing.assert_array_equal(plan.offsets, np.arange(twin.spec.n_threads + 1) * n)
