"""Performance normalization and trial statistics."""

import numpy as np
import pytest

from repro.metrics.perf import normalize_to_min
from repro.metrics.stats import mean_ci95


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


class TestStats:
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
