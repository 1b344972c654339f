"""Fast-tier partition ledger."""

import pytest

from repro.core.partition import PartitionLedger


def make() -> PartitionLedger:
    led = PartitionLedger(capacity_pages=100)
    led.register(1, quota_pages=40)
    led.register(2, quota_pages=60)
    return led


def test_set_quotas_replaces():
    led = make()
    led.set_quotas({1: 70, 2: 30})
    assert led.quotas == {1: 70, 2: 30}


def test_quota_sum_capped():
    led = make()
    with pytest.raises(ValueError):
        led.set_quotas({1: 70, 2: 40})


def test_unknown_pid_quota_rejected():
    led = make()
    with pytest.raises(KeyError):
        led.set_quotas({9: 10})


def test_negative_values_rejected():
    led = make()
    with pytest.raises(ValueError):
        led.set_quotas({1: -1, 2: 0})
    with pytest.raises(ValueError):
        led.set_usage(1, -1)


def test_register_unregister():
    led = make()
    with pytest.raises(ValueError):
        led.register(1)
    led.unregister(1)
    assert 1 not in led.quotas and 1 not in led.usage
    led.unregister(99)  # idempotent


def test_capacity_validation():
    with pytest.raises(ValueError):
        PartitionLedger(capacity_pages=0)
