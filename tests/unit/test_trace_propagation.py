"""Trace-context propagation through the executors, faults and the wire.

The tracing plane's contract tests: hop spans mirror the forward routing
tree, retries/detours under faults appear as events with failure
statuses, span context rides message fields (and both frame
encodings), and — the determinism guard — a traced run returns results
byte-identical to an untraced one.
"""

from __future__ import annotations

import asyncio
import json

from repro.api.requests import MultiRangeQuery, RangeQuery, RequestOptions
from repro.api.sim import SimSession
from repro.binframe import decode_binary, encode_binary
from repro.core.armada import ArmadaSystem
from repro.faults import ResiliencePolicy
from repro.obs.spans import Tracer, trace_from_wire
from repro.runtime.protocol import message_to_wire, wire_to_message
from repro.sim.rng import DeterministicRNG
from repro.workloads.values import uniform_values

LOW, HIGH = 100.0, 300.0
INTERVALS = ((0.0, 1000.0), (0.0, 1000.0))


def build_system(num_peers: int = 150, seed: int = 88, replicas: int = 1) -> ArmadaSystem:
    system = ArmadaSystem(
        num_peers=num_peers,
        seed=seed,
        attribute_interval=(0.0, 1000.0),
        attribute_intervals=INTERVALS,
    )
    values = uniform_values(DeterministicRNG(seed).substream("values"), 800, 0.0, 1000.0)
    if replicas > 1:
        for value in values:
            system.insert(value, replicas=replicas)
    else:
        system.insert_many(values)
    return system


def traced_query(system: ArmadaSystem, request=None):
    """Run one traced query through the session API; returns the reply."""
    session = SimSession(system, tracer=Tracer())
    if request is None:
        request = RangeQuery(low=LOW, high=HIGH, options=RequestOptions(trace=True))
    return asyncio.run(session.submit(request))


class TestHopSpans:
    def test_one_hop_span_per_forwarding_message(self):
        system = build_system()
        reply = traced_query(system)
        trace = trace_from_wire(reply.trace)
        hop_spans = [s for s in trace.spans if s.name.startswith("hop ")]
        assert len(hop_spans) == reply.result.messages
        assert {s.attributes["receiver"] for s in hop_spans} == {
            step[1] for step in reply.result.forwarding_steps
        }

    def test_span_parents_follow_the_routing_tree(self):
        system = build_system()
        reply = traced_query(system)
        trace = trace_from_wire(reply.trace)
        by_id = {span.span_id: span for span in trace.spans}
        for span in trace.spans:
            if not span.name.startswith("hop "):
                continue
            parent = by_id[span.parent_id]
            if parent is trace.root:
                assert span.attributes["sender"] == reply.result.origin
            else:
                assert span.attributes["sender"] == parent.attributes["receiver"]

    def test_root_carries_query_attributes_and_ok_status(self):
        system = build_system()
        reply = traced_query(system)
        trace = trace_from_wire(reply.trace)
        assert trace.root.attributes["low"] == LOW
        assert trace.root.attributes["high"] == HIGH
        assert trace.status == "ok"
        assert reply.trace_id == trace.trace_id == f"pira-{reply.result.query_id}"

    def test_mira_queries_trace_too(self):
        system = build_system()
        request = MultiRangeQuery(
            ranges=((LOW, HIGH), (0.0, 1000.0)), options=RequestOptions(trace=True)
        )
        reply = traced_query(system, request)
        trace = trace_from_wire(reply.trace)
        assert trace.trace_id.startswith("mira-")
        assert len(trace) >= 1

    def test_replicated_population_still_traces_fan_out(self):
        system = build_system(num_peers=150, replicas=2)
        reply = traced_query(system)
        trace = trace_from_wire(reply.trace)
        children_per_parent = {}
        for span in trace.spans:
            children_per_parent[span.parent_id] = (
                children_per_parent.get(span.parent_id, 0) + 1
            )
        assert max(children_per_parent.values()) >= 2  # the tree genuinely fans out
        assert reply.status == "ok"


class TestContextOnTheWire:
    def test_traced_messages_carry_trace_and_span_ids(self, drop_when):
        system = build_system(num_peers=80)
        seen = []

        def spy(message):
            seen.append((message.trace, message.span))
            return False  # observe, never drop

        injector = drop_when(system.overlay, spy)
        reply = traced_query(system)
        injector.uninstall()
        assert seen
        assert all(trace == reply.trace_id for trace, _ in seen)
        assert len({span for _, span in seen}) == len(seen)

    def test_untraced_messages_carry_no_trace_keys(self, drop_when):
        system = build_system(num_peers=80)
        seen = []

        def spy(message):
            seen.append((message.trace, message.span))
            return False

        injector = drop_when(system.overlay, spy)
        session = SimSession(system, tracer=Tracer())
        asyncio.run(session.submit(RangeQuery(low=LOW, high=HIGH)))
        injector.uninstall()
        assert seen
        assert all(context == (None, None) for context in seen)

    def test_msg_frame_round_trips_context_in_json_and_binary(self, drop_when):
        system = build_system(num_peers=80)
        captured = []

        def spy(message):
            captured.append(message)
            return False

        injector = drop_when(system.overlay, spy)
        traced_query(system)
        injector.uninstall()
        frame = message_to_wire(captured[0])
        assert frame["meta"]["trace"] == captured[0].trace
        # JSON round trip
        via_json = wire_to_message(json.loads(json.dumps(frame)))
        assert via_json.trace == captured[0].trace
        assert via_json.span == captured[0].span
        # binary round trip (the negotiated v2 body codec is type-generic)
        via_binary = wire_to_message(decode_binary(encode_binary(frame)))
        assert via_binary.trace == captured[0].trace
        assert via_binary.span == captured[0].span

    def test_reply_trace_payload_round_trips_binary(self):
        system = build_system(num_peers=80)
        reply = traced_query(system)
        payload = {"type": "reply", "trace_id": reply.trace_id, "trace": list(reply.trace)}
        decoded = decode_binary(encode_binary(payload))
        assert decoded["trace_id"] == reply.trace_id
        rebuilt = trace_from_wire(decoded["trace"])
        assert rebuilt.trace_id == reply.trace_id
        assert len(rebuilt) == len(reply.trace)


class TestFaultSpans:
    def test_retries_appear_as_events_under_the_failed_hop(self, drop_when):
        system = build_system()
        system.set_resilience(ResiliencePolicy(per_hop_timeout=3.0, max_retries=2))
        seen = set()

        def drop_first_copy(message):
            key = (message.query_id, message.send)
            if key in seen:
                return False
            seen.add(key)
            return True

        injector = drop_when(system.overlay, drop_first_copy)
        reply = traced_query(system)
        injector.uninstall()
        assert reply.result.resilience.retries > 0
        trace = trace_from_wire(reply.trace)
        retries = [s for s in trace.spans if s.name == "retry"]
        drops = [s for s in trace.spans if s.name == "drop"]
        assert len(retries) == reply.result.resilience.retries
        assert len(drops) == reply.result.resilience.drops
        hop_ids = {s.span_id for s in trace.spans if s.name.startswith("hop ")}
        assert all(event.parent_id in hop_ids for event in retries + drops)

    def test_dead_hop_yields_timeout_status_and_detour_span(self, drop_when):
        reference = build_system()
        probe = traced_query(reference)
        victim = next(
            step[1] for step in probe.result.forwarding_steps if step[2] == 1
        )

        system = build_system()
        system.set_resilience(
            ResiliencePolicy(per_hop_timeout=2.0, max_retries=1, reroute=True)
        )
        injector = drop_when(
            system.overlay,
            lambda message: message.receiver == victim
        )
        reply = traced_query(system)
        injector.uninstall()
        assert reply.result.resilience.reroutes > 0
        trace = trace_from_wire(reply.trace)
        timed_out = [s for s in trace.spans if s.status == "timeout"]
        detours = [s for s in trace.spans if s.name.startswith("detour ")]
        assert timed_out and detours
        failed_ids = {s.span_id for s in timed_out}
        assert any(d.parent_id in failed_ids for d in detours)
        assert all(d.attributes["around"] == victim for d in detours)

    def test_partial_query_trace_status(self, drop_when):
        system = build_system(num_peers=80)
        system.set_resilience(
            ResiliencePolicy(per_hop_timeout=2.0, max_retries=1, reroute=False)
        )
        injector = drop_when(system.overlay, lambda message: True)
        reply = traced_query(system)
        injector.uninstall()
        assert reply.status == "partial"
        trace = trace_from_wire(reply.trace)
        assert trace.root.status == "partial"


class TestDeterminismGuard:
    def test_traced_result_is_byte_identical_to_untraced(self):
        untraced_session = SimSession(build_system())
        untraced = asyncio.run(
            untraced_session.submit(RangeQuery(low=LOW, high=HIGH))
        )
        traced = traced_query(build_system())
        assert traced.trace_id is not None and untraced.trace_id is None
        assert json.dumps(traced.result.to_wire(), sort_keys=True) == json.dumps(
            untraced.result.to_wire(), sort_keys=True
        )
        assert traced.latency == untraced.latency

    def test_trace_flag_without_tracer_degrades_cleanly(self):
        session = SimSession(build_system(num_peers=80))  # no tracer attached
        reply = asyncio.run(
            session.submit(
                RangeQuery(low=LOW, high=HIGH, options=RequestOptions(trace=True))
            )
        )
        assert reply.status == "ok"
        assert reply.trace_id is None
        assert reply.trace == ()
