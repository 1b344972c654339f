"""check_regression: one unit test per detection branch of the service
bench gate."""

from __future__ import annotations

import json

import pytest

from repro.service.loadgen import check_regression

#: (pinned-block key, throughput metric) of the one payload family
FAMILIES = [("service", "jobs_per_sec")]


def _payload(kind: str, metric: str, value: float) -> dict:
    return {kind: {"name": "pinned", "quick": True}, "timing": {metric: value}}


def _write(tmp_path, payload: dict) -> str:
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.mark.parametrize("kind,metric", FAMILIES)
class TestPerFamily:
    def test_within_tolerance_passes(self, tmp_path, kind, metric):
        base = _write(tmp_path, _payload(kind, metric, 100.0))
        assert check_regression(_payload(kind, metric, 80.0), base) is None

    def test_improvement_passes(self, tmp_path, kind, metric):
        base = _write(tmp_path, _payload(kind, metric, 100.0))
        assert check_regression(_payload(kind, metric, 250.0), base) is None

    def test_regression_below_floor_detected(self, tmp_path, kind, metric):
        base = _write(tmp_path, _payload(kind, metric, 100.0))
        err = check_regression(_payload(kind, metric, 50.0), base)
        assert err is not None and f"{metric} regressed" in err

    def test_pinned_block_mismatch_detected(self, tmp_path, kind, metric):
        base = _write(tmp_path, _payload(kind, metric, 100.0))
        payload = _payload(kind, metric, 100.0)
        payload[kind] = {"name": "pinned", "quick": False}
        err = check_regression(payload, base)
        assert err is not None and "mismatch" in err

    def test_missing_baseline_is_an_error(self, tmp_path, kind, metric):
        err = check_regression(
            _payload(kind, metric, 100.0), str(tmp_path / "absent.json")
        )
        assert err is not None and "cannot read baseline" in err

    def test_malformed_baseline_is_an_error(self, tmp_path, kind, metric):
        path = tmp_path / "baseline.json"
        path.write_text('{"timing": {}}')
        err = check_regression(_payload(kind, metric, 100.0), str(path))
        assert err is not None and "cannot read baseline" in err

