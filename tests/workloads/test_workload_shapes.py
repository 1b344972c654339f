"""Workload generators: access-shape invariants for each application."""

import numpy as np
import pytest

from repro.core.classify import ServiceClass
from repro.mm.address_space import Vma
from repro.workloads.base import Workload, WorkloadSpec
from repro.workloads.liblinear import LiblinearWorkload
from repro.workloads.memcached import MemcachedWorkload
from repro.workloads.microbench import MicrobenchWorkload, scenario
from repro.workloads.pagerank import PageRankWorkload


def bind(wl: Workload, pid: int = 1) -> Vma:
    vma = Vma(start_vpn=1000, n_pages=wl.spec.rss_pages)
    wl.bind(pid, vma)
    return vma


def thread_batches(wl: Workload, epoch: int = 0):
    """The epoch's per-thread batches (views valid until the next plan)."""
    return list(wl.planned_epoch(epoch)[1].segments())


def all_accesses(wl: Workload, epoch: int = 0):
    batches = thread_batches(wl, epoch)
    vpns = np.concatenate([b.vpns for b in batches])
    writes = np.concatenate([b.is_write for b in batches])
    return batches, vpns, writes


def spec(name="w", service=ServiceClass.BE, rss=512, threads=4, apt=2000):
    return WorkloadSpec(name=name, service=service, rss_pages=rss, n_threads=threads, accesses_per_thread=apt)


class TestBase:
    def test_generate_before_bind_rejected(self):
        wl = MemcachedWorkload(spec(), seed=0)
        with pytest.raises(RuntimeError):
            wl.planned_epoch(0)

    def test_one_batch_per_thread(self):
        wl = MicrobenchWorkload(spec(threads=6), seed=0)
        bind(wl)
        batches = thread_batches(wl)
        assert len(batches) == 6
        assert sorted(b.tid for b in batches) == list(range(6))

    def test_accesses_stay_in_vma(self):
        for wl in (
            MemcachedWorkload(spec(), seed=1),
            PageRankWorkload(spec(), seed=1),
            LiblinearWorkload(spec(), seed=1),
            MicrobenchWorkload(spec(), seed=1),
        ):
            vma = bind(wl)
            _, vpns, _ = all_accesses(wl)
            assert vpns.min() >= vma.start_vpn
            assert vpns.max() < vma.end_vpn

    def test_deterministic_generation(self):
        a = MemcachedWorkload(spec(), seed=3)
        b = MemcachedWorkload(spec(), seed=3)
        bind(a), bind(b)
        _, va, wa = all_accesses(a, epoch=2)
        _, vb, wb = all_accesses(b, epoch=2)
        np.testing.assert_array_equal(va, vb)
        np.testing.assert_array_equal(wa, wb)


class _Toy(Workload):
    """Thread ``t`` emits ``n + extra[t]`` accesses to vpn ``start + t``."""

    def __init__(self, extra: list[int]) -> None:
        super().__init__(spec(name="toy", threads=len(extra), apt=10))
        self.extra = extra

    def _thread_access(self, tid, n, epoch):
        m = n + self.extra[tid]
        return np.full(m, self.vma.start_vpn + tid, dtype=np.int64), np.zeros(m, dtype=bool)


class TestPlanBuffer:
    def test_thread_over_its_budget_rejected(self):
        wl = _Toy([0, 1, 0])
        bind(wl)
        with pytest.raises(ValueError, match="'toy' thread 1 emitted 11 accesses"):
            wl.planned_epoch(0)

    def test_short_thread_gets_correct_offsets(self):
        wl = _Toy([-1, 0, -1])
        vma = bind(wl)
        _, plan = wl.planned_epoch(0)
        assert plan.offsets.tolist() == [0, 9, 19, 28]
        expected = np.repeat(vma.start_vpn + np.arange(3), [9, 10, 9])
        np.testing.assert_array_equal(plan.vpns, expected)
        assert [b.tid for b in plan.segments()] == [0, 1, 2]


class TestMemcached:
    def test_get_set_ratio(self):
        wl = MemcachedWorkload(spec(apt=20_000), seed=0)
        bind(wl)
        _, _, writes = all_accesses(wl)
        assert writes.mean() == pytest.approx(0.10, abs=0.02)
        assert wl.write_fraction() == pytest.approx(0.10)

    def test_hot_keyset_receives_90_percent(self):
        wl = MemcachedWorkload(spec(rss=1000, apt=20_000), seed=0)
        bind(wl)
        _, vpns, _ = all_accesses(wl)
        counts = np.bincount(vpns - 1000, minlength=1000)
        top100 = np.sort(counts)[-100:].sum()
        assert top100 / counts.sum() == pytest.approx(0.90, abs=0.03)

    def test_bursty_issue_rate(self):
        wl = MemcachedWorkload(spec(service=ServiceClass.LC), seed=0)
        bind(wl)
        rates = [wl.issue_rate(e) for e in range(16)]
        assert max(rates) > 0.9
        assert min(rates) < 0.5  # idles between bursts

    def test_wss_is_hot_keyset(self):
        wl = MemcachedWorkload(spec(rss=1000), seed=0)
        bind(wl)
        assert wl.wss_pages() == 100


class TestPageRank:
    def test_gathers_are_reads_sweep_has_writes(self):
        wl = PageRankWorkload(spec(apt=10_000), seed=0)
        bind(wl)
        _, _, writes = all_accesses(wl)
        assert 0.0 < writes.mean() < 0.25
        assert wl.write_fraction() == pytest.approx(0.1)

    def test_degree_skew_on_adjacency(self):
        wl = PageRankWorkload(spec(rss=1000, apt=20_000), seed=0)
        bind(wl)
        _, vpns, _ = all_accesses(wl)
        adj = vpns[vpns < 1000 + wl._adj_pages] - 1000
        counts = np.bincount(adj, minlength=wl._adj_pages)
        assert counts.max() > 5 * max(np.median(counts), 1)

    def test_rank_slices_private_per_thread(self):
        wl = PageRankWorkload(spec(rss=1000, threads=4, apt=4000), seed=0)
        bind(wl)
        batches = thread_batches(wl)
        rank_base = 1000 + wl._adj_pages
        slices = []
        for b in batches:
            rank_vpns = b.vpns[b.vpns >= rank_base]
            if rank_vpns.size:
                slices.append((rank_vpns.min(), rank_vpns.max()))
        # Disjoint per-thread ranges.
        slices.sort()
        for (lo1, hi1), (lo2, _) in zip(slices, slices[1:]):
            assert hi1 < lo2

    def test_saturating_issue_rate(self):
        wl = PageRankWorkload(spec(), seed=0)
        assert all(wl.issue_rate(e) == 1.0 for e in range(8))


class TestLiblinear:
    def test_scan_covers_shards_sequentially(self):
        wl = LiblinearWorkload(spec(rss=800, threads=2, apt=2000), seed=0)
        bind(wl)
        b0 = thread_batches(wl)[0]
        scan = b0.vpns[b0.vpns >= 1000 + wl._feature_pages]
        # Sequential positions: consecutive diffs are 0/1 modulo wrap.
        diffs = np.diff(scan)
        assert ((diffs == 1) | (diffs < 0) | (diffs == 0)).all()

    def test_feature_region_hot_and_write_heavy(self):
        wl = LiblinearWorkload(spec(rss=1000, apt=20_000), seed=0)
        bind(wl)
        _, vpns, writes = all_accesses(wl)
        feat_mask = vpns < 1000 + wl._feature_pages
        assert feat_mask.mean() == pytest.approx(wl.feature_access_frac, abs=0.05)
        assert writes[feat_mask].mean() == pytest.approx(0.5, abs=0.05)
        assert writes[~feat_mask].mean() == 0.0  # scans never write

    def test_scan_position_advances_across_epochs(self):
        wl = LiblinearWorkload(spec(rss=4000, threads=1, apt=100), seed=0)
        bind(wl)
        s0 = thread_batches(wl, 0)[0].vpns.copy()
        s1 = thread_batches(wl, 1)[0].vpns
        scan0 = s0[s0 >= 1000 + wl._feature_pages]
        scan1 = s1[s1 >= 1000 + wl._feature_pages]
        assert scan1.min() > scan0.min()  # kept streaming forward


class TestMicrobench:
    def test_read_ratio_respected(self):
        wl = MicrobenchWorkload(spec(apt=20_000), seed=0, read_ratio=0.7)
        bind(wl)
        _, _, writes = all_accesses(wl)
        assert writes.mean() == pytest.approx(0.3, abs=0.02)

    def test_accesses_confined_to_wss(self):
        wl = MicrobenchWorkload(spec(rss=1024), seed=0, wss_pages=128)
        bind(wl)
        _, vpns, _ = all_accesses(wl)
        assert np.unique(vpns).size <= 128

    def test_private_mode_separates_threads(self):
        wl = MicrobenchWorkload(spec(rss=1024, threads=4), seed=0, wss_pages=128, shared_threads=False)
        bind(wl)
        batches = thread_batches(wl)
        ranges = [(b.vpns.min(), b.vpns.max()) for b in batches]
        ranges.sort()
        for (lo1, hi1), (lo2, _) in zip(ranges, ranges[1:]):
            assert hi1 < lo2

    def test_scenarios_sized_to_fast_tier(self):
        small = scenario("small", fast_tier_pages=1000)
        medium = scenario("medium", fast_tier_pages=1000)
        large = scenario("large", fast_tier_pages=1000)
        assert small.wss_pages() == 500
        assert medium.wss_pages() == 1000
        assert large.wss_pages() == 2000
        assert large.spec.rss_pages == 4 * large.wss_pages()
        with pytest.raises(ValueError):
            scenario("huge", 1000)

    def test_wss_validation(self):
        with pytest.raises(ValueError):
            MicrobenchWorkload(spec(rss=100), wss_pages=200)
        with pytest.raises(ValueError):
            MicrobenchWorkload(spec(), read_ratio=1.5)
