"""Performance normalization and trial statistics."""

import numpy as np
import pytest

from repro.metrics.perf import average_improvement, geometric_mean, normalize_to_min, slowdown
from repro.metrics.stats import ema, mean_ci95


class TestPerf:
    def test_normalize_to_min(self):
        out = normalize_to_min({"tpp": 2.0, "vulcan": 3.0, "memtis": 2.5})
        assert out["tpp"] == 1.0
        assert out["vulcan"] == pytest.approx(1.5)

    def test_normalize_empty(self):
        assert normalize_to_min({}) == {}

    def test_normalize_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            normalize_to_min({"a": 0.0})

    def test_slowdown(self):
        assert slowdown(colocated=80.0, standalone=100.0) == pytest.approx(0.8)
        with pytest.raises(ValueError):
            slowdown(1.0, 0.0)

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_average_improvement_vs_best_baseline(self):
        perf = {
            "wl1": {"vulcan": 1.2, "tpp": 1.0, "memtis": 1.1},  # +9.1% vs best
            "wl2": {"vulcan": 1.0, "tpp": 1.0, "memtis": 0.9},  # +0%
        }
        imp = average_improvement(perf)
        assert imp == pytest.approx((1.2 / 1.1 - 1.0) / 2)

    def test_average_improvement_validation(self):
        with pytest.raises(ValueError):
            average_improvement({})
        with pytest.raises(KeyError):
            average_improvement({"wl": {"tpp": 1.0}})
        with pytest.raises(ValueError):
            average_improvement({"wl": {"vulcan": 1.0}})


class TestStats:
    def test_ema_first_value_passthrough(self):
        out = ema([10.0, 0.0], alpha=0.8)
        assert out[0] == 10.0
        assert out[1] == pytest.approx(0.8 * 0.0 + 0.2 * 10.0)

    def test_ema_alpha_one_tracks_input(self):
        np.testing.assert_array_equal(ema([1.0, 5.0, 2.0], 1.0), [1.0, 5.0, 2.0])

    def test_ema_alpha_zero_freezes(self):
        np.testing.assert_array_equal(ema([3.0, 9.0, 1.0], 0.0), [3.0, 3.0, 3.0])

    def test_ema_validation(self):
        with pytest.raises(ValueError):
            ema([1.0], alpha=1.5)

    def test_mean_ci95_single_sample(self):
        assert mean_ci95([4.2]) == (4.2, 0.0)

    def test_mean_ci95_t_distribution_small_n(self):
        mean, hw = mean_ci95([10.0, 12.0, 14.0, 16.0, 18.0])
        assert mean == pytest.approx(14.0)
        # t(4, 0.975) = 2.776; sem = std/sqrt(5)
        sem = np.std([10, 12, 14, 16, 18], ddof=1) / np.sqrt(5)
        assert hw == pytest.approx(2.776 * sem, rel=1e-3)

    def test_mean_ci95_shrinks_with_n(self):
        rng = np.random.default_rng(0)
        small = mean_ci95(rng.normal(0, 1, 5))[1]
        large = mean_ci95(rng.normal(0, 1, 500))[1]
        assert large < small

    def test_mean_ci95_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_ci95([])
