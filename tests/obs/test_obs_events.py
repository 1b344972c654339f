"""Ring buffer bounds, overflow and ordering."""

import pytest

from repro.obs.events import EventKind, RingBuffer, TraceEvent


def ev(i: int) -> TraceEvent:
    return TraceEvent(kind=EventKind.INSTANT, name=f"e{i}", ts=float(i))


def test_append_and_order():
    buf = RingBuffer(capacity=8)
    for i in range(5):
        buf.append(ev(i))
    assert len(buf) == 5
    assert [e.name for e in buf] == ["e0", "e1", "e2", "e3", "e4"]
    assert buf.dropped == 0


def test_overflow_drops_oldest():
    buf = RingBuffer(capacity=4)
    for i in range(10):
        buf.append(ev(i))
    assert len(buf) == 4
    assert buf.dropped == 6
    # Only the newest `capacity` events survive, oldest first.
    assert [e.name for e in buf] == ["e6", "e7", "e8", "e9"]


def test_overflow_exactly_at_capacity():
    buf = RingBuffer(capacity=3)
    for i in range(3):
        buf.append(ev(i))
    assert len(buf) == 3 and buf.dropped == 0
    buf.append(ev(3))
    assert len(buf) == 3 and buf.dropped == 1
    assert [e.name for e in buf] == ["e1", "e2", "e3"]


def test_clear_resets_everything():
    buf = RingBuffer(capacity=2)
    for i in range(5):
        buf.append(ev(i))
    buf.clear()
    assert len(buf) == 0
    assert buf.dropped == 0
    assert buf.snapshot() == []
    buf.append(ev(7))
    assert [e.name for e in buf] == ["e7"]


def test_invalid_capacity_rejected():
    for capacity in (0, -1):
        with pytest.raises(ValueError):
            RingBuffer(capacity=capacity)
