"""GPT / FTHR / demand (paper Eq. 1-3)."""

import pytest

from repro.core.qos import (
    FTHR_ALPHA,
    QosTracker,
    WorkloadQos,
    demand_pages,
    gpt_for,
)


class TestGpt:
    def test_saturates_at_one_when_share_covers_rss(self):
        assert gpt_for(rss_pages=100, fast_capacity_pages=1000, n_workloads=2) == 1.0

    def test_fractional_when_share_smaller(self):
        # GFMC = 500; RSS = 2000 → GPT = 0.25
        assert gpt_for(2000, 1000, 2) == pytest.approx(0.25)

    def test_gpt_drops_as_coworkers_arrive(self):
        g1 = gpt_for(5100, 3435, 1)
        g2 = gpt_for(5100, 3435, 2)
        g3 = gpt_for(5100, 3435, 3)
        assert g1 > g2 > g3

    def test_zero_rss_means_fully_covered(self):
        assert gpt_for(0, 100, 2) == 1.0

    def test_zero_workloads_rejected(self):
        with pytest.raises(ValueError):
            gpt_for(1, 1, 0)


class TestFthr:
    def test_window_average_eq1(self):
        q = WorkloadQos(pid=1, rss_pages=100)
        q.add_sample(fast_accesses=80, slow_accesses=20)
        q.add_sample(fast_accesses=60, slow_accesses=40)
        assert q.window_average() == pytest.approx(140 / 200)

    def test_first_window_initializes_directly(self):
        q = WorkloadQos(pid=1, rss_pages=100)
        q.add_sample(90, 10)
        assert q.end_window() == pytest.approx(0.9)

    def test_ema_eq2(self):
        q = WorkloadQos(pid=1, rss_pages=100)
        q.add_sample(90, 10)
        q.end_window()
        q.add_sample(50, 50)
        fthr = q.end_window()
        # α·H_t + (1-α)·H_{t-1} with α=0.8
        assert fthr == pytest.approx(FTHR_ALPHA * 0.5 + (1 - FTHR_ALPHA) * 0.9)

    def test_no_samples_gives_zero(self):
        q = WorkloadQos(pid=1, rss_pages=100)
        assert q.end_window() == 0.0

    def test_negative_sample_rejected(self):
        with pytest.raises(ValueError):
            WorkloadQos(pid=1).add_sample(-1, 0)


class TestDemand:
    def test_under_target_grows_hard(self):
        """Eq. 3's log² factor makes under-target demand saturate at RSS."""
        d = demand_pages(alloc_pages=100, gpt=0.5, fthr=0.1, rss_pages=5000)
        assert d == 5000

    def test_mildly_under_target_grows_partially(self):
        d = demand_pages(alloc_pages=100, gpt=0.5, fthr=0.4999, rss_pages=5000)
        assert 100 < d < 5000

    def test_lc_release_keeps_hot_set(self):
        d = demand_pages(1000, gpt=0.2, fthr=0.9, rss_pages=5000, hot_set_pages=400, latency_critical=True)
        assert d == 460  # 400 × 1.15

    def test_lc_release_never_exceeds_alloc(self):
        d = demand_pages(300, gpt=0.2, fthr=0.9, rss_pages=5000, hot_set_pages=400, latency_critical=True)
        assert d == 300

    def test_lc_without_estimate_holds(self):
        assert demand_pages(300, gpt=0.2, fthr=0.9, rss_pages=5000) == 300

    def test_be_release_shrinks_toward_kappa_gpt(self):
        # gpt 0.2 → target 0.4; fthr 0.8 → shrink to half.
        d = demand_pages(1000, gpt=0.2, fthr=0.8, rss_pages=5000, latency_critical=False)
        assert d == 500

    def test_be_within_headroom_holds(self):
        d = demand_pages(1000, gpt=0.2, fthr=0.35, rss_pages=5000, latency_critical=False)
        assert d == 1000

    def test_zero_rss(self):
        assert demand_pages(0, 1.0, 0.0, 0) == 0


class TestTracker:
    def test_register_refreshes_all_gpts(self):
        t = QosTracker(fast_capacity_pages=1000)
        a = t.register(1, rss_pages=1000)
        assert a.gpt == 1.0
        b = t.register(2, rss_pages=1000)
        assert a.gpt == pytest.approx(0.5)
        assert b.gpt == pytest.approx(0.5)
        t.unregister(2)
        assert a.gpt == 1.0

    def test_duplicate_pid_rejected(self):
        t = QosTracker(100)
        t.register(1, 10)
        with pytest.raises(ValueError):
            t.register(1, 10)

    def test_set_rss_rederives_gpt(self):
        t = QosTracker(1000)
        q = t.register(1, 500)
        assert q.gpt == 1.0
        t.set_rss(1, 4000)
        assert q.gpt == pytest.approx(0.25)

    def test_end_epoch_returns_fthr_map(self):
        t = QosTracker(1000)
        t.register(1, 100)
        t.workloads[1].add_sample(3, 1)
        assert t.end_epoch() == {1: pytest.approx(0.75)}

    def test_demands_uses_service_class(self):
        t = QosTracker(1000)
        t.register(1, 2000)
        t.workloads[1].gpt = 0.2
        t.workloads[1].fthr = 0.8
        t.workloads[1]._initialized = True
        d_lc = t.demands({1: 1000}, hot_sets={1: 100}, latency_critical={1: True})
        d_be = t.demands({1: 1000}, hot_sets={1: 100}, latency_critical={1: False})
        assert d_lc[1] == 115
        assert d_be[1] == 500

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            QosTracker(0)
