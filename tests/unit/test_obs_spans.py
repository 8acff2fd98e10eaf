"""Unit tests for the span model and its exporters (repro.obs.spans)."""

from __future__ import annotations

import json

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


def build_trace(tracer: Tracer) -> QueryTrace:
    trace = tracer.begin_query("pira", 0.0, query_id=1, origin="012")
    hop = tracer.start_span(trace, "hop 012->101", 0.0, sender="012", receiver="101")
    tracer.end_span(hop, 1.0)
    child = tracer.start_span(trace, "hop 101->210", 1.0, parent_id=hop.span_id)
    tracer.end_span(child, 2.0)
    tracer.finish_query(trace, 2.0)
    return trace


class TestTracerLifecycle:
    def test_begin_start_finish(self):
        tracer = Tracer()
        trace = build_trace(tracer)
        assert trace.done
        assert trace.status == "ok"
        assert len(trace) == 3
        assert trace.root.duration == 2.0
        assert trace.trace_id in tracer.completed
        assert trace.trace_id not in tracer.active

    def test_ids_are_deterministic_counters(self):
        ids_a = [span.span_id for span in build_trace(Tracer()).spans]
        ids_b = [span.span_id for span in build_trace(Tracer()).spans]
        assert ids_a == ids_b == [1, 2, 3]

    def test_take_pops_once(self):
        tracer = Tracer()
        trace = build_trace(tracer)
        assert tracer.take(trace.trace_id) is trace
        assert tracer.take(trace.trace_id) is None

    def test_drain_returns_completion_order(self):
        tracer = Tracer()
        first = build_trace(tracer)
        second = build_trace(tracer)
        assert tracer.drain() == [first, second]
        assert tracer.drain() == []

    def test_finish_closes_open_spans_with_status(self):
        tracer = Tracer()
        trace = tracer.begin_query("pira", 0.0)
        tracer.start_span(trace, "hop a->b", 0.0)
        tracer.finish_query(trace, 5.0, status="deadline")
        assert trace.status == "deadline"
        assert all(span.end == 5.0 for span in trace.spans)
        assert all(span.status == "deadline" for span in trace.spans)

    def test_end_span_is_idempotent(self):
        span = Span("t", 1, None, "hop", 0.0)
        Tracer.end_span(span, 1.0, status="timeout")
        Tracer.end_span(span, 9.0, status="ok")
        assert span.end == 1.0
        assert span.status == "timeout"

    def test_event_is_zero_duration(self):
        tracer = Tracer()
        trace = tracer.begin_query("pira", 0.0)
        event = tracer.event(trace, "retry", 1.5, attempt=1)
        assert event.duration == 0.0
        assert not event.open


class TestSerialisation:
    def test_span_dict_round_trip(self):
        tracer = Tracer()
        trace = build_trace(tracer)
        for span in trace.spans:
            clone = span_from_dict(json.loads(json.dumps(span_to_dict(span))))
            assert span_to_dict(clone) == span_to_dict(span)

    def test_trace_from_wire_rebuilds_tree(self):
        trace = build_trace(Tracer())
        rebuilt = trace_from_wire(trace.to_wire())
        assert rebuilt.trace_id == trace.trace_id
        assert rebuilt.root.span_id == trace.root.span_id
        assert len(rebuilt) == len(trace)
        assert rebuilt.done

    def test_trace_from_wire_empty(self):
        assert trace_from_wire([]) is None

    def test_jsonl_one_line_per_span(self):
        trace = build_trace(Tracer())
        lines = spans_to_jsonl(trace.spans).splitlines()
        assert len(lines) == len(trace)
        assert all(json.loads(line)["trace_id"] == trace.trace_id for line in lines)


class TestChromeExport:
    def test_complete_events_for_closed_spans(self):
        trace = build_trace(Tracer())
        payload = spans_to_chrome([trace])
        assert payload["displayTimeUnit"] == "ms"
        events = payload["traceEvents"]
        assert len(events) == len(trace)
        root = events[0]
        assert root["ph"] == "X"
        assert root["dur"] == 2.0 * 1_000_000
        assert all(event["tid"] == 1 for event in events)

    def test_parallel_traces_get_distinct_tids(self):
        tracer = Tracer()
        payload = spans_to_chrome([build_trace(tracer), build_trace(tracer)])
        assert {event["tid"] for event in payload["traceEvents"]} == {1, 2}

    def test_instant_events_for_zero_duration(self):
        tracer = Tracer()
        trace = tracer.begin_query("pira", 0.0)
        tracer.event(trace, "drop", 1.0)
        tracer.finish_query(trace, 1.0)
        phases = {e["name"]: e["ph"] for e in spans_to_chrome([trace])["traceEvents"]}
        assert phases["drop"] == "i"


class TestFormatTree:
    def test_indented_tree_with_status_markers(self):
        tracer = Tracer()
        trace = tracer.begin_query("pira", 0.0, origin="012")
        hop = tracer.start_span(trace, "hop 012->101", 0.0)
        tracer.end_span(hop, 2.0, status="timeout")
        tracer.start_span(trace, "detour 012->210", 2.0, parent_id=hop.span_id)
        tracer.finish_query(trace, 3.0)
        text = format_span_tree(trace, clock_unit="s")
        lines = text.splitlines()
        assert lines[0].startswith("pira ")
        assert "origin=012" in lines[0]
        assert lines[1].startswith("  hop 012->101")
        assert "!timeout" in lines[1]
        assert lines[2].startswith("    detour 012->210")
