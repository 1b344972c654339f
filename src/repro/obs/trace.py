"""The tracer: spans, instants, and the deterministic cycle clock.

One process-wide :class:`Tracer` (via :func:`get_tracer`) feeds the
bounded ring buffer in :mod:`repro.obs.events`.  Its clock is *simulated
cycles*, advanced by the components that charge cycle costs (migration
phase charges) and re-anchored by the harness at each epoch boundary —
never wall clock, so two same-seed traced runs emit identical streams.

Instrumented sites follow one pattern::

    tracer = get_tracer()
    ...
    if tracer.enabled:
        tracer.emit(EventKind.TLB_SHOOTDOWN, "shootdown", args={...})

or, for durations::

    with tracer.span("migrate_batch", pid=pid, pages=len(requests)):
        ...

Disabled tracing costs one attribute read per site (``span`` returns a
shared no-op context manager), keeping figure benchmarks untouched.
"""

from __future__ import annotations

from typing import Any

from repro.obs.events import EventKind, RingBuffer, TraceEvent


class _NullSpan:
    """Shared no-op context manager for disabled tracing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """A live span: records start time on entry, emits on exit."""

    __slots__ = ("tracer", "name", "pid", "args", "start")

    def __init__(self, tracer: "Tracer", name: str, pid: int | None, args: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.pid = pid
        self.args = args
        self.start = 0.0

    def __enter__(self) -> "_Span":
        self.start = self.tracer.now
        return self

    def __exit__(self, *exc: object) -> None:
        self.tracer._append(
            TraceEvent(
                kind=EventKind.SPAN,
                name=self.name,
                ts=self.start,
                dur=self.tracer.now - self.start,
                pid=self.pid,
                args=self.args,
            )
        )


class Tracer:
    """Cycle-clocked event recorder."""

    def __init__(self) -> None:
        self.enabled = False
        self.buffer = RingBuffer()
        self._now = 0.0

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated cycle time."""
        return self._now

    def set_time(self, cycles: float) -> None:
        """Re-anchor the clock (epoch boundaries); never moves backwards."""
        if cycles > self._now:
            self._now = float(cycles)

    def advance(self, cycles: float) -> None:
        """Move time forward by a charged cycle cost."""
        if cycles > 0:
            self._now += float(cycles)

    # -- lifecycle -------------------------------------------------------------

    def enable(self) -> None:
        """Turn tracing on, starting fresh."""
        self.buffer.clear()
        self._now = 0.0
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def events(self) -> list[TraceEvent]:
        """Snapshot of the recorded stream, oldest first."""
        return self.buffer.snapshot()

    # -- recording -------------------------------------------------------------

    def _append(self, event: TraceEvent) -> None:
        if self.enabled:
            self.buffer.append(event)

    def emit(
        self,
        kind: EventKind,
        name: str,
        *,
        pid: int | None = None,
        dur: float = 0.0,
        args: dict[str, Any] | None = None,
    ) -> None:
        """Record one event at the current cycle time."""
        if not self.enabled:
            return
        self.buffer.append(
            TraceEvent(kind=kind, name=name, ts=self._now, dur=dur, pid=pid,
                       args=args if args is not None else {})
        )

    def instant(self, name: str, *, pid: int | None = None, **args: Any) -> None:
        """Record a point event."""
        if not self.enabled:
            return
        self.buffer.append(
            TraceEvent(kind=EventKind.INSTANT, name=name, ts=self._now, pid=pid, args=args)
        )

    def span(self, name: str, *, pid: int | None = None, **args: Any):
        """Context manager timing a region in simulated cycles."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, pid, args)


#: The process-wide tracer instrumented code talks to.
_TRACER = Tracer()


def get_tracer() -> Tracer:
    return _TRACER
