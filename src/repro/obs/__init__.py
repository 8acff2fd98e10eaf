"""Unified observability layer shared by the simulator and the live runtime.

Three planes, one package:

- :mod:`repro.obs.spans` — query-scoped distributed tracing.  A
  :class:`~repro.obs.spans.Tracer` hands out span trees keyed by
  ``trace_id``; the resumable executors set span ids on each message's
  ``trace``/``span`` fields so a hop's lifetime is visible whether the message crossed a
  simulated overlay edge or a real TCP link.  Exporters serialise span
  trees to JSONL and to Chrome ``trace_event`` JSON (Perfetto-loadable).
- :mod:`repro.obs.metrics` — a process-wide metric registry (counters,
  gauges, fixed-bucket histograms) rendered in Prometheus text
  exposition format and snapshotted into benchmark reports.
- :mod:`repro.obs.logs` — structured (optionally JSON) stdlib logging
  with per-subsystem loggers and ``trace_id`` correlation.
- :mod:`repro.obs.recorder` / :mod:`repro.obs.replay` — the
  backward-looking plane: an always-on bounded ring of runtime events
  (the **flight recorder**), dumpable on demand, and the time-travel
  replay engine that re-executes a dump inside the simulator and diffs
  every replayed reply against the recorded live one.

Everything here is stdlib-only and deterministic: span/trace ids are
drawn from per-tracer counters, never from wall clocks or RNGs, so a
traced simulation stays byte-identical to an untraced one.
"""

from repro.obs.logs import JsonLogFormatter, configure_logging, get_logger
from repro.obs.recorder import DUMP_MAGIC, DumpError, FlightRecorder, load_dump, write_dump
from repro.obs.replay import (
    Divergence,
    ReplayError,
    ReplayReport,
    ReplayTransport,
    replay_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    HOP_BUCKETS,
    LATENCY_BUCKETS_S,
)
from repro.obs.spans import (
    QueryTrace,
    Span,
    Tracer,
    format_span_tree,
    span_from_dict,
    span_to_dict,
    spans_to_chrome,
    spans_to_jsonl,
    trace_from_wire,
)

__all__ = [
    "Counter",
    "DUMP_MAGIC",
    "Divergence",
    "DumpError",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HOP_BUCKETS",
    "JsonLogFormatter",
    "LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "QueryTrace",
    "ReplayError",
    "ReplayReport",
    "ReplayTransport",
    "Span",
    "Tracer",
    "configure_logging",
    "format_span_tree",
    "get_logger",
    "load_dump",
    "replay_events",
    "span_from_dict",
    "span_to_dict",
    "spans_to_chrome",
    "spans_to_jsonl",
    "trace_from_wire",
    "write_dump",
]
