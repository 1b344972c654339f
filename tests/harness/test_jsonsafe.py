"""Non-finite floats must survive strict-JSON output.

``json.dumps`` emits bare ``NaN``/``Infinity`` literals (invalid JSON)
unless ``allow_nan=False`` — at which point serialization *raises*.
Result payloads (the goldens, ``scenario run --json``) therefore carry
non-finite values as ``{"__float__": ...}`` markers, and leave finite
payloads byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest

from repro.harness.experiment import ExperimentResult, WorkloadTimeseries
from repro.harness.jsonsafe import FLOAT_KEY, encode_nonfinite


class TestMarkers:
    @pytest.mark.parametrize("value,marker", [
        (float("nan"), "NaN"),
        (float("inf"), "Infinity"),
        (float("-inf"), "-Infinity"),
    ])
    def test_encode_decode(self, value, marker):
        enc = encode_nonfinite({"x": [1.0, value]})
        assert enc["x"][1] == {FLOAT_KEY: marker}
        dec = json.loads(json.dumps(enc, allow_nan=False))
        assert dec == {"x": [1.0, {FLOAT_KEY: marker}]}

    def test_finite_payload_untouched(self):
        payload = {"a": [1.5, 2], "b": {"c": -0.0}, "s": "NaN"}
        assert encode_nonfinite(payload) == payload

    def test_encoded_form_is_strict_json(self):
        enc = encode_nonfinite([float("nan"), float("inf")])
        text = json.dumps(enc, allow_nan=False)  # would raise if any leaked
        assert json.loads(text) == [{FLOAT_KEY: "NaN"}, {FLOAT_KEY: "Infinity"}]


class TestExperimentRoundTrip:
    def _timeseries_with_nonfinite(self) -> WorkloadTimeseries:
        ts = WorkloadTimeseries(pid=1, name="w")
        ts.ops.extend([1.0, float("nan")])
        ts.fthr_true.extend([float("inf"), 0.5])
        ts.fast_pages.extend([3, 4])
        return ts

    def test_timeseries_round_trip_through_strict_json(self):
        ts = self._timeseries_with_nonfinite()
        back = json.loads(json.dumps(ts.to_dict(), allow_nan=False))
        assert back["ops"] == [1.0, {FLOAT_KEY: "NaN"}]
        assert back["fthr_true"] == [{FLOAT_KEY: "Infinity"}, 0.5]
        assert back["fast_pages"] == [3, 4]

    def test_finite_timeseries_dict_is_byte_identical(self):
        """The golden suites depend on finite payloads passing through
        the encoder unchanged."""
        ts = WorkloadTimeseries(pid=1, name="w")
        ts.ops.extend([1.0, 2.0])
        d = ts.to_dict()
        for f in fields(ts):
            v = getattr(ts, f.name)
            assert d[f.name] == (list(v) if isinstance(v, list) else v)

    def test_experiment_result_round_trip(self):
        ts = self._timeseries_with_nonfinite()
        res = ExperimentResult(policy_name="vulcan", n_epochs=2,
                               workloads={1: ts},
                               migration_cycles=[0.0, float("inf")])
        back = json.loads(json.dumps(res.to_dict(), allow_nan=False))
        assert back["migration_cycles"] == [0.0, {FLOAT_KEY: "Infinity"}]
        assert back["workloads"]["1"]["ops"] == [1.0, {FLOAT_KEY: "NaN"}]
