"""repro.obs — structured tracing for the simulation stack.

A traced run keeps one record, its typed event stream.  Three
cooperating pieces:

* :mod:`repro.obs.events` — typed trace events in a bounded ring buffer
  stamped with the deterministic simulation *cycle* clock (never wall
  clock, so traced runs replay bit-identically);
* :mod:`repro.obs.trace` — the span/instant tracer API instrumented
  through ``mm.migration``, ``core.daemon``, ``core.cbfrp``,
  ``core.queues``, ``harness.experiment``, ``scenario.engine`` and
  ``fleet.experiment``;
* :mod:`repro.obs.export` — the Chrome ``trace_event`` writer
  (chrome://tracing / Perfetto loadable), its reader, and the
  human-readable summary that powers ``python -m repro trace``.

Tracing is **off by default**; instrumented call sites guard on
``tracer.enabled`` so disabled runs pay one attribute read per site.

Quickstart::

    from repro.obs import get_tracer
    from repro.obs.export import write_chrome_trace

    tracer = get_tracer()
    tracer.enable()
    ...  # run an experiment
    write_chrome_trace(tracer.events(), "trace.json")
    tracer.disable()
"""

from repro.obs.events import EventKind, RingBuffer, TraceEvent
from repro.obs.trace import Tracer, get_tracer

__all__ = [
    "EventKind",
    "RingBuffer",
    "TraceEvent",
    "Tracer",
    "get_tracer",
]
