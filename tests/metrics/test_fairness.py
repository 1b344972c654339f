"""Jain's index and the FTHR-weighted CFI (Eq. 4)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.fairness import cfi, jain_index


class TestJain:
    def test_equal_is_one(self):
        assert jain_index([5, 5, 5]) == pytest.approx(1.0)

    def test_single_recipient_is_1_over_n(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        assert jain_index([1, 2, 3]) == pytest.approx(jain_index([100, 200, 300]))

    def test_empty_and_zero_vacuously_fair(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1, -1])

    def test_underflowing_squares(self):
        assert jain_index([1.78e-159, 1.78e-159]) == 1.0
        assert jain_index([1e-200, 0.0]) == 0.5

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=16))
    @example([1.78e-159, 1.78e-159])
    @example([1e-200, 0.0])
    def test_bounds_property(self, values):
        j = jain_index(values)
        assert 0.0 <= j <= 1.0 + 1e-9
        if any(v > 0 for v in values):
            assert j >= 1.0 / len(values) - 1e-9


class TestCfi:
    def test_equal_effective_allocation_is_fair(self):
        alloc = {1: np.array([10.0, 10.0]), 2: np.array([20.0, 20.0])}
        fthr = {1: np.array([0.8, 0.8]), 2: np.array([0.4, 0.4])}
        # X_1 = 16, X_2 = 16 → perfectly fair.
        assert cfi(alloc, fthr) == pytest.approx(1.0)

    def test_monopoly_is_unfair(self):
        alloc = {1: np.array([100.0]), 2: np.array([0.0])}
        fthr = {1: np.array([0.9]), 2: np.array([0.1])}
        assert cfi(alloc, fthr) == pytest.approx(0.5)

    def test_fthr_weighting_matters(self):
        """Equal allocations with unequal hit ratios are NOT fair —
        the efficiency adjustment is the point of Eq. 4."""
        alloc = {1: np.array([10.0]), 2: np.array([10.0])}
        fthr_eq = {1: np.array([0.5]), 2: np.array([0.5])}
        fthr_sk = {1: np.array([0.9]), 2: np.array([0.1])}
        assert cfi(alloc, fthr_eq) > cfi(alloc, fthr_sk)

    def test_different_activity_spans_allowed(self):
        alloc = {1: np.ones(10) * 4, 2: np.ones(5) * 8}
        fthr = {1: np.ones(10), 2: np.ones(5)}
        assert cfi(alloc, fthr) == pytest.approx(1.0)

    def test_pid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cfi({1: np.array([1.0])}, {2: np.array([1.0])})

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cfi({1: np.array([1.0, 2.0])}, {1: np.array([1.0])})


# -- windowed fairness under churn -----------------------------------------------

from repro.harness.experiment import ExperimentResult, WorkloadTimeseries
from repro.metrics.fairness import churn_fairness, windowed_cfi


def _ts(pid, name, epochs, alloc, fthr=None):
    n = len(epochs)
    return WorkloadTimeseries(
        pid=pid, name=name, epochs=list(epochs),
        fast_pages=list(alloc), fthr_true=list(fthr or [1.0] * n),
    )


def _result(workloads, n_epochs):
    return ExperimentResult(policy_name="t", n_epochs=n_epochs,
                            workloads={ts.pid: ts for ts in workloads})


class TestWindowedCfi:
    def test_perfectly_fair_windows_score_one(self):
        res = _result([
            _ts(1, "a", range(8), [10] * 8),
            _ts(2, "b", range(8), [10] * 8),
        ], n_epochs=8)
        windows = windowed_cfi(res, window=4)
        assert [w["cfi"] for w in windows] == [pytest.approx(1.0)] * 2
        assert [(w["start"], w["end"]) for w in windows] == [(0, 4), (4, 8)]
        assert all(w["n_active"] == 2 for w in windows)

    def test_departed_pid_leaves_later_windows(self):
        res = _result([
            _ts(1, "stays", range(8), [10] * 8),
            _ts(2, "leaves", range(4), [2] * 4),  # gone after epoch 3
        ], n_epochs=8)
        w0, w1 = windowed_cfi(res, window=4)
        assert w0["pids"] == [1, 2]
        assert w1["pids"] == [1]
        # A lone survivor is trivially fair; the skewed first window is not.
        assert w1["cfi"] == pytest.approx(1.0)
        assert w0["cfi"] < 1.0

    def test_windows_with_nobody_active_are_skipped(self):
        res = _result([_ts(1, "late", [8, 9], [5, 5])], n_epochs=12)
        windows = windowed_cfi(res, window=4)
        assert [(w["start"], w["end"]) for w in windows] == [(8, 12)]

    def test_ragged_final_window(self):
        res = _result([_ts(1, "a", range(10), [1] * 10)], n_epochs=10)
        assert windowed_cfi(res, window=4)[-1]["end"] == 10

    def test_window_must_be_positive(self):
        res = _result([_ts(1, "a", range(4), [1] * 4)], n_epochs=4)
        with pytest.raises(ValueError):
            windowed_cfi(res, window=0)


class TestChurnFairness:
    def test_summary_shape_and_bounds(self):
        res = _result([
            _ts(1, "a", range(8), [10] * 8),
            _ts(2, "b", range(4), [2] * 4),
        ], n_epochs=8)
        summ = churn_fairness(res, window=4)
        assert summ["window"] == 4
        assert len(summ["windows"]) == 2
        assert 0.0 < summ["min_cfi"] <= summ["mean_cfi"] <= 1.0
        assert summ["min_cfi"] == min(w["cfi"] for w in summ["windows"])

    def test_empty_run_defaults_to_fair(self):
        summ = churn_fairness(_result([], n_epochs=0), window=4)
        assert summ["mean_cfi"] == 1.0 and summ["min_cfi"] == 1.0 and summ["windows"] == []
