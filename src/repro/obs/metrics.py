"""Process-wide registry of named, labelled metrics.

Three instrument types:

* :class:`Counter` — monotonically increasing (pages moved, IPIs sent);
* :class:`Gauge` — last-written value (quota, queue depth);
* :class:`Histogram` — bucketed distribution (shootdown scope sizes).

Each ``(name, labels)`` pair is one time series, like Prometheus:
``registry.counter("pages_moved", workload="memcached", tier="fast")``.
Label values are stringified so ``tier=0`` and ``tier="0"`` collide
deliberately.

**Zero-cost when disabled:** a disabled registry hands every caller the
same no-op instruments, so instrumented hot paths pay one attribute
check and no allocation.  The registry is process-wide via
:func:`get_registry`, mirroring how real exporters (statsd, Prometheus
client) are wired.
"""

from __future__ import annotations

import bisect
from typing import Any, Iterable

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-bucket histogram (upper-bound buckets plus +Inf overflow)."""

    __slots__ = ("name", "labels", "bounds", "counts", "total", "sum")

    DEFAULT_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)

    def __init__(self, name: str, labels: LabelKey, bounds: Iterable[float] | None = None) -> None:
        self.name = name
        self.labels = labels
        self.bounds = tuple(sorted(bounds)) if bounds is not None else self.DEFAULT_BOUNDS
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value


class _NullInstrument:
    """Shared no-op standing in for every instrument when disabled."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


class MetricsRegistry:
    """Name + labels → instrument, with cross-label aggregation."""

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._counters: dict[tuple[str, LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, LabelKey], Histogram] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter | _NullInstrument:
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(name, key[1])
        return inst

    def gauge(self, name: str, **labels: Any) -> Gauge | _NullInstrument:
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(name, key[1])
        return inst

    def histogram(
        self, name: str, *, bounds: Iterable[float] | None = None, **labels: Any
    ) -> Histogram | _NullInstrument:
        if not self.enabled:
            return _NULL
        key = (name, _label_key(labels))
        inst = self._histograms.get(key)
        if inst is None:
            inst = self._histograms[key] = Histogram(name, key[1], bounds)
        return inst

    # -- read side -----------------------------------------------------------

    def series(self, name: str) -> dict[LabelKey, float]:
        """Every label combination of a counter/gauge ``name`` → value."""
        out: dict[LabelKey, float] = {}
        for store in (self._counters, self._gauges):
            for (n, labels), inst in store.items():
                if n == name:
                    out[labels] = inst.value
        return out

    def aggregate(self, name: str, *group_by: str) -> dict[LabelKey, float]:
        """Sum a counter/gauge across all labels *not* in ``group_by``.

        ``aggregate("pages_moved")`` collapses everything to one number
        under the empty key; ``aggregate("pages_moved", "tier")`` keeps
        one sum per tier.
        """
        out: dict[LabelKey, float] = {}
        for labels, value in self.series(name).items():
            kept = tuple((k, v) for k, v in labels if k in group_by)
            out[kept] = out.get(kept, 0.0) + value
        return out

    def collect(self) -> dict[str, list[dict[str, Any]]]:
        """JSON-friendly dump of every live series."""
        out: dict[str, list[dict[str, Any]]] = {"counters": [], "gauges": [], "histograms": []}
        for (name, labels), c in sorted(self._counters.items()):
            out["counters"].append({"name": name, "labels": dict(labels), "value": c.value})
        for (name, labels), g in sorted(self._gauges.items()):
            out["gauges"].append({"name": name, "labels": dict(labels), "value": g.value})
        for (name, labels), h in sorted(self._histograms.items()):
            out["histograms"].append({
                "name": name,
                "labels": dict(labels),
                "bounds": list(h.bounds),
                "counts": list(h.counts),
                "total": h.total,
                "sum": h.sum,
            })
        return out

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()


#: The process-wide registry instrumented code talks to.
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    return _REGISTRY
