"""Tracer hygiene: the tracer is process-wide, so every test that turns
it on must leave it off for the rest of the suite."""

from __future__ import annotations

import pytest

from repro.obs.trace import get_tracer


@pytest.fixture
def tracer():
    t = get_tracer()
    t.enable()
    yield t
    t.disable()
    t.buffer.clear()
