"""Metrics registry: labels, aggregation, zero-cost disabled path."""

import pytest

from repro.obs.metrics import MetricsRegistry, _NullInstrument


def test_counter_labels_are_distinct_series():
    reg = MetricsRegistry(enabled=True)
    reg.counter("pages_moved", workload="a", tier="fast").inc(3)
    reg.counter("pages_moved", workload="a", tier="slow").inc(2)
    reg.counter("pages_moved", workload="b", tier="fast").inc(5)
    series = reg.series("pages_moved")
    assert len(series) == 3
    assert series[(("tier", "fast"), ("workload", "a"))] == 3


def test_aggregate_collapses_ungrouped_labels():
    reg = MetricsRegistry(enabled=True)
    reg.counter("pages_moved", workload="a", tier="fast").inc(3)
    reg.counter("pages_moved", workload="a", tier="slow").inc(2)
    reg.counter("pages_moved", workload="b", tier="fast").inc(5)
    assert reg.aggregate("pages_moved") == {(): 10.0}
    by_tier = reg.aggregate("pages_moved", "tier")
    assert by_tier[(("tier", "fast"),)] == 8.0
    assert by_tier[(("tier", "slow"),)] == 2.0
    by_workload = reg.aggregate("pages_moved", "workload")
    assert by_workload[(("workload", "a"),)] == 5.0


def test_same_labels_return_same_instrument():
    reg = MetricsRegistry(enabled=True)
    a = reg.counter("x", tier=0)
    b = reg.counter("x", tier="0")  # values stringified: same series
    assert a is b
    a.inc()
    assert b.value == 1.0


def test_gauge_and_histogram():
    reg = MetricsRegistry(enabled=True)
    g = reg.gauge("quota", workload="a")
    g.set(96)
    g.inc(4)
    assert reg.series("quota") == {(("workload", "a"),): 100.0}
    h = reg.histogram("scope", bounds=(1, 2, 8))
    for v in (1, 1, 2, 5, 100):
        h.observe(v)
    assert h.total == 5
    assert h.counts == [2, 1, 1, 1]  # <=1, <=2, <=8, +Inf
    assert h.sum == 109


def test_disabled_registry_is_noop_and_allocates_nothing():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("x", tier="fast")
    assert isinstance(c, _NullInstrument)
    # All null instruments are the same shared object.
    assert c is reg.gauge("y") is reg.histogram("z")
    c.inc()
    reg.gauge("y").set(5)
    reg.histogram("z").observe(1)
    assert reg.collect() == {"counters": [], "gauges": [], "histograms": []}


def test_counter_rejects_negative():
    reg = MetricsRegistry(enabled=True)
    with pytest.raises(ValueError):
        reg.counter("x").inc(-1)


def test_collect_is_json_shaped():
    reg = MetricsRegistry(enabled=True)
    reg.counter("c", a=1).inc()
    reg.gauge("g").set(2)
    reg.histogram("h").observe(3)
    dump = reg.collect()
    assert dump["counters"][0] == {"name": "c", "labels": {"a": "1"}, "value": 1.0}
    assert dump["gauges"][0]["value"] == 2.0
    assert dump["histograms"][0]["total"] == 1
