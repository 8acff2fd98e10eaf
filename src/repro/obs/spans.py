"""Query-scoped span model: the tracing plane of the observability layer.

A *span* is one timed operation inside a query — the whole query, one
forwarding hop, a retry attempt, a detour around a dead peer.  Spans
form a tree via ``parent_id`` and are grouped into a
:class:`QueryTrace` by ``trace_id`` (one trace per query).

Design constraints, in order:

1. **Determinism.**  Trace and span ids come from per-tracer counters,
   never from clocks or RNGs.  Running a simulation with a tracer
   attached must not perturb a single RNG draw or result byte.
2. **Hot-path cost.**  The resumable executors guard every tracing
   call behind ``state.trace is not None``; when no tracer is
   installed the only overhead is that ``None`` check.
3. **Wire neutrality.**  Span context crosses the transport seam as
   two small message fields (``trace``, ``span``) that serialise
   through the JSON frame codec unchanged.

Exporters: :func:`spans_to_jsonl` (one span per line, grep-friendly)
and :func:`spans_to_chrome` (Chrome ``trace_event`` JSON — load the
file in Perfetto / ``chrome://tracing`` to see the hop tree on a
timeline).  :func:`format_span_tree` pretty-prints the tree for the
``repro trace`` CLI.
"""

from __future__ import annotations

import itertools
import json
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "QueryTrace",
    "Tracer",
    "span_to_dict",
    "span_from_dict",
    "trace_from_wire",
    "spans_to_jsonl",
    "spans_to_chrome",
    "format_span_tree",
]


class Span:
    """One timed operation inside a traced query.

    ``end`` is ``None`` while the span is open; ``status`` is ``"ok"``
    unless the operation failed (``"timeout"``, ``"dropped"``,
    ``"unreachable"``, ``"deadline"``).
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "status",
        "attributes",
    )

    def __init__(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.status = "ok"
        self.attributes: Dict[str, Any] = attributes if attributes is not None else {}

    @property
    def duration(self) -> float:
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def open(self) -> bool:
        return self.end is None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, parent={self.parent_id}, "
            f"start={self.start:.3f}, end={self.end}, status={self.status!r})"
        )


class QueryTrace:
    """All spans of one query, in creation order (parents before children)."""

    __slots__ = ("trace_id", "root", "spans", "done", "status")

    def __init__(self, trace_id: str, root: Span) -> None:
        self.trace_id = trace_id
        self.root = root
        self.spans: List[Span] = [root]
        self.done = False
        self.status = "ok"

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def to_wire(self) -> List[Dict[str, Any]]:
        return [span_to_dict(span) for span in self.spans]


class Tracer:
    """Creates, tracks and finishes query-scoped span trees.

    A single tracer instance serves every executor in a process (the
    simulator and the live cluster both run their executors centrally,
    so span bookkeeping never needs to cross a machine boundary —
    only the *context ids* travel, as message fields).

    ``max_spans_per_trace`` bounds memory per query; spans beyond the
    cap are counted in ``dropped`` rather than stored.
    """

    def __init__(self, max_spans_per_trace: Optional[int] = None) -> None:
        self._span_ids = itertools.count(1)
        self._trace_seq = itertools.count(1)
        self.active: Dict[str, QueryTrace] = {}
        self.completed: Dict[str, QueryTrace] = {}
        self.dropped = 0

        self.max_spans_per_trace = max_spans_per_trace

    # -- trace lifecycle -------------------------------------------------

    def begin_query(
        self,
        name: str,
        now: float,
        trace_id: Optional[str] = None,
        **attributes: Any,
    ) -> QueryTrace:
        """Open a new trace with a root span covering the whole query."""
        if trace_id is None:
            trace_id = f"t{next(self._trace_seq)}"
        root = Span(trace_id, next(self._span_ids), None, name, now, attributes)
        trace = QueryTrace(trace_id, root)
        self.active[trace_id] = trace
        return trace

    def start_span(
        self,
        trace: QueryTrace,
        name: str,
        now: float,
        parent_id: Optional[int] = None,
        **attributes: Any,
    ) -> Optional[Span]:
        """Open a child span; returns ``None`` when the trace is at cap."""
        limit = self.max_spans_per_trace
        if limit is not None and len(trace.spans) >= limit:
            self.dropped += 1
            return None
        if parent_id is None:
            parent_id = trace.root.span_id
        span = Span(trace.trace_id, next(self._span_ids), parent_id, name, now, attributes)
        trace.spans.append(span)
        return span

    def event(
        self,
        trace: QueryTrace,
        name: str,
        now: float,
        parent_id: Optional[int] = None,
        **attributes: Any,
    ) -> Optional[Span]:
        """A zero-duration span — an instantaneous point of interest."""
        span = self.start_span(trace, name, now, parent_id=parent_id, **attributes)
        if span is not None:
            span.end = now
        return span

    @staticmethod
    def end_span(span: Optional[Span], now: float, status: str = "ok") -> None:
        if span is None or span.end is not None:
            return
        span.end = now
        span.status = status

    def finish_query(self, trace: QueryTrace, now: float, status: str = "ok") -> None:
        """Close the root (and any still-open spans) and archive the trace."""
        for span in trace.spans:
            if span.end is None and span is not trace.root:
                span.end = now
                if status != "ok":
                    span.status = status
        trace.root.end = now
        trace.root.status = status
        trace.status = status
        trace.done = True
        self.active.pop(trace.trace_id, None)
        self.completed[trace.trace_id] = trace

    # -- retrieval -------------------------------------------------------

    def take(self, trace_id: str) -> Optional[QueryTrace]:
        """Pop one completed trace (the gateway attaches it to a reply)."""
        return self.completed.pop(trace_id, None)

    def drain(self) -> List[QueryTrace]:
        """Pop every completed trace, in completion order."""
        traces = list(self.completed.values())
        self.completed.clear()
        return traces

    def clear(self) -> None:
        self.active.clear()
        self.completed.clear()
        self.dropped = 0


# -- serialisation -------------------------------------------------------


def span_to_dict(span: Span) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "name": span.name,
        "start": span.start,
        "status": span.status,
    }
    if span.parent_id is not None:
        payload["parent_id"] = span.parent_id
    if span.end is not None:
        payload["end"] = span.end
    if span.attributes:
        payload["attributes"] = dict(span.attributes)
    return payload


def span_from_dict(payload: Dict[str, Any]) -> Span:
    span = Span(
        str(payload["trace_id"]),
        int(payload["span_id"]),
        payload.get("parent_id"),
        str(payload["name"]),
        float(payload["start"]),
        dict(payload.get("attributes", {})),
    )
    if "end" in payload:
        span.end = float(payload["end"])
    span.status = str(payload.get("status", "ok"))
    return span


def trace_from_wire(spans: Iterable[Dict[str, Any]]) -> Optional[QueryTrace]:
    """Rebuild a :class:`QueryTrace` from its wire form (``to_wire()``).

    The root is the parentless span (first span as a fallback for
    truncated payloads); returns ``None`` for an empty payload.
    """
    decoded = [span_from_dict(payload) for payload in spans]
    if not decoded:
        return None
    root = next((span for span in decoded if span.parent_id is None), decoded[0])
    trace = QueryTrace(root.trace_id, root)
    trace.spans = decoded
    trace.done = all(span.end is not None for span in decoded)
    trace.status = root.status
    return trace


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line; greppable and streamable."""
    return "\n".join(json.dumps(span_to_dict(span), sort_keys=True) for span in spans)


def spans_to_chrome(
    traces: Iterable[QueryTrace],
    time_scale: float = 1_000_000.0,
    dropped: int = 0,
) -> Dict[str, Any]:
    """Chrome ``trace_event`` JSON (the format Perfetto loads natively).

    Each query trace becomes one ``tid`` so parallel queries stack as
    separate rows; hop spans are complete (``ph: "X"``) events and
    zero-duration events render as instants (``ph: "i"``).  ``time_scale``
    converts span clock units to microseconds (the sim clock is "hops",
    the live clock is seconds — both scale fine).
    """
    events: List[Dict[str, Any]] = []
    for tid, trace in enumerate(traces, start=1):
        for span in trace.spans:
            args = {"span_id": span.span_id, "status": span.status}
            if span.parent_id is not None:
                args["parent_id"] = span.parent_id
            args.update(span.attributes)
            base = {
                "name": span.name,
                "cat": span.trace_id,
                "pid": 1,
                "tid": tid,
                "ts": span.start * time_scale,
                "args": args,
            }
            if span.end is not None and span.end > span.start:
                base["ph"] = "X"
                base["dur"] = (span.end - span.start) * time_scale
            else:
                base["ph"] = "i"
                base["s"] = "t"
            events.append(base)
    payload: Dict[str, Any] = {"traceEvents": events, "displayTimeUnit": "ms"}
    if dropped:
        payload["otherData"] = {"dropped_spans": dropped}
    return payload


def format_span_tree(trace: QueryTrace, clock_unit: str = "") -> str:
    """Indented hop/retry/reroute tree for terminal output."""
    children: Dict[Optional[int], List[Span]] = {}
    for span in trace.spans:
        children.setdefault(span.parent_id, []).append(span)
    lines: List[str] = []

    def walk(span: Span, depth: int) -> None:
        marker = "" if span.status == "ok" else f" !{span.status}"
        attrs = ""
        if span.attributes:
            attrs = " " + " ".join(f"{k}={v}" for k, v in sorted(span.attributes.items()))
        duration = f" [{span.duration:.3f}{clock_unit}]" if span.end is not None else " [open]"
        lines.append(f"{'  ' * depth}{span.name}{duration}{marker}{attrs}")
        for child in children.get(span.span_id, ()):
            walk(child, depth + 1)

    walk(trace.root, 0)
    return "\n".join(lines)
