"""Exporter edge cases: empty traces, long traces, detour round-trips.

The happy paths live in ``test_obs_spans.py``; these are the boundary
shapes the exporters must survive — a run that traced nothing, a long
trace the tracer must keep whole, and a fault-recovery trace (timeout
hop + detour child) surviving a full wire → Perfetto round-trip.
"""

from __future__ import annotations

import json

from repro.obs.spans import (
    Tracer,
    spans_to_chrome,
    spans_to_jsonl,
    trace_from_wire,
)


def build_detour_trace(tracer: Tracer):
    """A trace shaped like a real fault recovery: a timed-out hop whose
    retransmissions and sibling detour hang off it as children."""
    trace = tracer.begin_query("pira", 0.0, query_id=7, origin="012")
    hop = tracer.start_span(trace, "hop 012->101", 0.0, sender="012", receiver="101")
    tracer.event(trace, "retry", 1.0, parent_id=hop.span_id, attempt=1)
    tracer.end_span(hop, 2.0, status="timeout")
    detour = tracer.start_span(
        trace, "detour 012->210", 2.0, parent_id=hop.span_id, receiver="210"
    )
    tracer.end_span(detour, 3.0)
    tracer.finish_query(trace, 3.0)
    return trace


class TestEmptyTrace:
    def test_from_wire_of_nothing_is_none(self):
        assert trace_from_wire([]) is None

    def test_chrome_export_of_no_traces_is_loadable(self):
        payload = spans_to_chrome([])
        assert payload["traceEvents"] == []
        assert "otherData" not in payload
        # Perfetto only needs valid JSON with a traceEvents array.
        assert json.loads(json.dumps(payload)) == payload

    def test_jsonl_export_of_no_spans_is_empty(self):
        assert spans_to_jsonl([]) == ""


class TestClippedTrace:
    """The tracer keeps every span, so no export carries a loss marker."""

    def test_zero_dropped_adds_no_other_data(self):
        tracer = Tracer()
        trace = tracer.begin_query("pira", 0.0)
        for index in range(50):
            tracer.start_span(trace, f"hop {index}", 0.0)
        tracer.finish_query(trace, 1.0)
        payload = spans_to_chrome([trace])
        assert len(payload["traceEvents"]) == 51  # the root and every hop
        assert "otherData" not in payload


class TestDetourRoundTrip:
    def test_wire_round_trip_preserves_perfetto_payload(self):
        trace = build_detour_trace(Tracer())
        wire = json.loads(json.dumps(trace.to_wire()))  # across a real codec
        rebuilt = trace_from_wire(wire)
        original = spans_to_chrome([trace])
        round_tripped = spans_to_chrome([rebuilt])
        assert json.dumps(round_tripped, sort_keys=True) == json.dumps(
            original, sort_keys=True
        )

    def test_detour_keeps_parent_and_statuses(self):
        rebuilt = trace_from_wire(build_detour_trace(Tracer()).to_wire())
        by_name = {span.name: span for span in rebuilt.spans}
        hop = by_name["hop 012->101"]
        assert hop.status == "timeout"
        assert by_name["detour 012->210"].parent_id == hop.span_id
        assert by_name["retry"].parent_id == hop.span_id
        events = spans_to_chrome([rebuilt])["traceEvents"]
        phases = {event["name"]: event["ph"] for event in events}
        assert phases["retry"] == "i"
        assert phases["detour 012->210"] == "X"
