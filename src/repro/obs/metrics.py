"""The program's metrics registry, with Prometheus text exposition.

The gateway, the cluster and its peer nodes register here (see
:func:`repro.runtime.server.build_observability`) and ``/metrics``
renders it.  It is the only registry: the live transport and the
simulator's overlay both count their messages in plain int fields, and
the live ones reach ``/metrics`` through callback gauges read at scrape
time.  It has three instrument kinds:

- :class:`Counter` — monotone, optionally labelled.
- :class:`Gauge` — settable point-in-time value, with optional
  *callback* gauges resolved at scrape time (peer store sizes,
  transport counters, anything already tracked elsewhere).
- :class:`Histogram` — fixed-bucket cumulative histogram; buckets are
  chosen at registration so exposition needs no quantile math.

Rendering follows the Prometheus text exposition format
(``# HELP`` / ``# TYPE`` headers, ``_bucket{le=...}`` / ``_sum`` /
``_count`` series for histograms).  :meth:`MetricsRegistry.snapshot`
flattens everything into plain floats for benchmark JSON reports.

Everything is stdlib-only and allocation-light; instruments are
created once and cached by the caller, so the hot path is a dict-free
attribute increment.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "HOP_BUCKETS",
    "LATENCY_BUCKETS_S",
]

# Hop-count buckets: the paper's Kautz overlays resolve queries in a
# handful of hops even at large N, so single-hop resolution up to 16
# then a couple of coarse buckets suffice.
HOP_BUCKETS: Tuple[float, ...] = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 24, 32)

# Wall-clock latency buckets (seconds): localhost gateway queries land
# in the low milliseconds; the tail buckets catch deadline-bound runs.
LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_LabelValues = Tuple[str, ...]


def _format_value(value: float) -> str:
    """Prometheus prints integers without a trailing ``.0``."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(names: Tuple[str, ...], values: _LabelValues) -> str:
    if not names:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in zip(names, values))
    return "{" + inner + "}"


class Counter:
    """A monotone counter, optionally split by a fixed label set."""

    __slots__ = ("name", "help", "label_names", "_values")

    def __init__(self, name: str, help: str = "", label_names: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._values: Dict[_LabelValues, float] = {}
        if not label_names:
            self._values[()] = 0.0

    def inc(self, amount: float = 1.0, *labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for decrements")
        key = tuple(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def child(self, *labels: str) -> "_CounterChild":
        """A bound single-series handle for hot paths (no tuple per inc)."""
        key = tuple(labels)
        self._values.setdefault(key, 0.0)
        return _CounterChild(self, key)

    def value(self, *labels: str) -> float:
        return self._values.get(tuple(labels), 0.0)

    def series(self) -> Iterable[Tuple[_LabelValues, float]]:
        return sorted(self._values.items())

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} counter"]
        for labels, value in self.series():
            lines.append(
                f"{self.name}{_format_labels(self.label_names, labels)} {_format_value(value)}"
            )
        return lines


class _CounterChild:
    __slots__ = ("_counter", "_key")

    def __init__(self, counter: Counter, key: _LabelValues) -> None:
        self._counter = counter
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        values = self._counter._values
        values[self._key] = values[self._key] + amount


class Gauge:
    """A point-in-time value; ``callback`` gauges resolve at scrape time."""

    __slots__ = ("name", "help", "label_names", "_values", "_callbacks")

    def __init__(self, name: str, help: str = "", label_names: Tuple[str, ...] = ()) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._values: Dict[_LabelValues, float] = {}
        self._callbacks: Dict[_LabelValues, Callable[[], float]] = {}

    def set(self, value: float, *labels: str) -> None:
        self._values[tuple(labels)] = float(value)

    def add(self, amount: float, *labels: str) -> None:
        key = tuple(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def set_callback(self, fn: Callable[[], float], *labels: str) -> None:
        self._callbacks[tuple(labels)] = fn

    def value(self, *labels: str) -> float:
        key = tuple(labels)
        if key in self._callbacks:
            return float(self._callbacks[key]())
        return self._values.get(key, 0.0)

    def series(self) -> Iterable[Tuple[_LabelValues, float]]:
        merged: Dict[_LabelValues, float] = dict(self._values)
        for key, fn in self._callbacks.items():
            merged[key] = float(fn())
        return sorted(merged.items())

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} gauge"]
        for labels, value in self.series():
            lines.append(
                f"{self.name}{_format_labels(self.label_names, labels)} {_format_value(value)}"
            )
        return lines


class Histogram:
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``buckets`` are upper bounds; an implicit ``+Inf`` bucket always
    exists.  ``observe`` is O(buckets) with no allocation.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_sum", "_count")

    def __init__(self, name: str, buckets: Iterable[float], help: str = "") -> None:
        self.name = name
        self.help = help
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        self._counts = [0] * (len(self.buckets) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        self._sum += value
        self._count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self._counts[index] += 1
                return
        self._counts[-1] += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    def bucket_counts(self) -> Dict[str, int]:
        """Cumulative counts keyed by upper bound (including ``+Inf``)."""
        cumulative = 0
        out: Dict[str, int] = {}
        for bound, count in zip(self.buckets, self._counts):
            cumulative += count
            out[_format_value(bound)] = cumulative
        out["+Inf"] = cumulative + self._counts[-1]
        return out

    def render(self) -> List[str]:
        lines = [f"# HELP {self.name} {self.help}", f"# TYPE {self.name} histogram"]
        for bound, cumulative in self.bucket_counts().items():
            lines.append(f'{self.name}_bucket{{le="{bound}"}} {cumulative}')
        lines.append(f"{self.name}_sum {_format_value(self._sum)}")
        lines.append(f"{self.name}_count {self._count}")
        return lines


class MetricsRegistry:
    """The process-wide metric registry for one run.

    Instruments register lazily on first access and keep insertion
    order in the exposition output.  A single registry instance is
    shared by the gateway, the cluster, the soak driver and the
    exposition endpoint.
    """

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._metrics: Dict[str, Any] = {}

    def _full(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _get(self, name: str, kind: type, factory: Callable[[], Any]) -> Any:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise ValueError(f"metric {name!r} already registered as {type(metric).__name__}")
        return metric

    def counter(self, name: str, help: str = "", label_names: Tuple[str, ...] = ()) -> Counter:
        full = self._full(name)
        return self._get(full, Counter, lambda: Counter(full, help, label_names))

    def gauge(self, name: str, help: str = "", label_names: Tuple[str, ...] = ()) -> Gauge:
        full = self._full(name)
        return self._get(full, Gauge, lambda: Gauge(full, help, label_names))

    def histogram(
        self, name: str, buckets: Iterable[float], help: str = ""
    ) -> Histogram:
        full = self._full(name)
        return self._get(full, Histogram, lambda: Histogram(full, buckets, help))

    def register_callback(
        self, name: str, fn: Callable[[], float], help: str = "", *labels: str
    ) -> None:
        """A gauge whose value is read from ``fn`` at scrape time."""
        gauge = self.gauge(name, help)
        gauge.set_callback(fn, *labels)

    # -- output ----------------------------------------------------------

    def render(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        lines: List[str] = []
        for metric in self._metrics.values():
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"

    def snapshot(self) -> Dict[str, float]:
        """Flat name→value dict for benchmark/soak JSON reports."""
        out: Dict[str, float] = {}
        for name, metric in self._metrics.items():
            if isinstance(metric, Histogram):
                out[f"{name}_count"] = float(metric.count)
                out[f"{name}_sum"] = float(metric.total)
                continue
            for labels, value in metric.series():
                suffix = "" if not labels else "{" + ",".join(labels) + "}"
                out[f"{name}{suffix}"] = float(value)
        return out
