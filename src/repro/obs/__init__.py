"""repro.obs — structured tracing and metrics for the simulation stack.

Three cooperating pieces:

* :mod:`repro.obs.events` — typed trace events in a bounded ring buffer
  stamped with the deterministic simulation *cycle* clock (never wall
  clock, so traced runs replay bit-identically);
* :mod:`repro.obs.metrics` — a process-wide registry of labelled
  counters / gauges / histograms, zero-cost when disabled;
* :mod:`repro.obs.trace` — the span/instant tracer API instrumented
  through ``mm.migration``, ``core.daemon``, ``core.cbfrp``,
  ``core.queues`` and ``harness.experiment``;
* :mod:`repro.obs.export` — JSONL, Chrome ``trace_event``
  (chrome://tracing / Perfetto loadable) and human-readable summary
  exporters, plus the reader that powers ``python -m repro trace``.

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
from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Tracer, get_tracer

__all__ = [
    "EventKind",
    "MetricsRegistry",
    "RingBuffer",
    "TraceEvent",
    "Tracer",
    "get_registry",
    "get_tracer",
]
