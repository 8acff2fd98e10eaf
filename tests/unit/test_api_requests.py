"""Unit tests for the ``repro.api`` request/reply model."""

from __future__ import annotations

import json

import pytest

from repro.api.requests import (
    ApiError,
    Insert,
    MultiInsert,
    MultiRangeQuery,
    Ping,
    QueryReply,
    RangeQuery,
    RequestOptions,
    Stats,
    reply_from_payload,
    request_from_job,
    request_from_wire,
)
from repro.core.pira import RangeQueryResult
from repro.engine.reporting import QueryJob
from repro.storage.base import StoredObject
from repro.wire import encode_column


class TestRequestWire:
    def test_round_trip_every_op(self):
        requests = [
            RangeQuery(low=1.0, high=2.0),
            RangeQuery(low=1.0, high=2.0, options=RequestOptions(origin="010", deadline=3.0)),
            MultiRangeQuery(ranges=((0.0, 1.0), (2.0, 3.0))),
            Insert(value=42.0),
            MultiInsert(values=(1.0, 2.0)),
            Stats(),
            Ping(),
        ]
        for request in requests:
            wire = json.loads(json.dumps(request.to_wire()))
            assert request_from_wire(wire) == request

    def test_default_options_omitted_from_wire(self):
        wire = RangeQuery(low=0.0, high=1.0).to_wire()
        assert "options" not in wire

    def test_non_default_options_round_trip(self):
        for options in (
            RequestOptions(origin="010", deadline=2.5, replicas=3),
            RequestOptions(origin="012", deadline=0.5, trace=True),
        ):
            rebuilt = RequestOptions.from_wire(json.loads(json.dumps(options.to_wire())))
            assert rebuilt == options

    def test_an_older_clients_retries_key_is_ignored(self):
        # A session submits a request once; "retries" is an unknown key now.
        wire = {"op": "insert", "value": 42.0, "options": {"retries": 1, "replicas": 2}}
        assert request_from_wire(wire) == Insert(
            value=42.0, options=RequestOptions(replicas=2)
        )

    def test_an_older_clients_stream_key_is_ignored(self):
        # A query's answer is one reply; "stream" is an unknown key now.
        wire = {"op": "range", "low": 1.0, "high": 2.0, "options": {"stream": True}}
        assert request_from_wire(wire) == RangeQuery(low=1.0, high=2.0)

    def test_unknown_op_rejected(self):
        with pytest.raises(ApiError, match="unknown request op"):
            request_from_wire({"op": "frobnicate"})

    def test_non_object_rejected(self):
        with pytest.raises(ApiError, match="JSON object"):
            request_from_wire([1, 2, 3])

    def test_malformed_fields_rejected(self):
        with pytest.raises(ApiError, match="malformed"):
            request_from_wire({"op": "range", "low": "abc", "high": 2.0})
        with pytest.raises(ApiError, match="malformed"):
            request_from_wire({"op": "range"})  # missing bounds
        for options, complaint in (
            (5, "options must be a JSON object"),
            ([], "options must be a JSON object"),
            ({"deadline": "x"}, "malformed 'range' request"),
            ({"replicas": [2]}, "malformed 'range' request"),
        ):
            with pytest.raises(ApiError, match=complaint):
                request_from_wire({"op": "range", "low": 1.0, "high": 2.0, "options": options})

    def test_validation(self):
        with pytest.raises(ApiError, match="exceeds"):
            RangeQuery(low=2.0, high=1.0)
        nan = float("nan")
        for low, high in ((nan, 1.0), (0.0, nan), (nan, nan)):
            with pytest.raises(ApiError, match="not a number"):
                RangeQuery(low=low, high=high)
            with pytest.raises(ApiError, match="not a number"):
                MultiRangeQuery(ranges=((0.0, 1.0), (low, high)))
        with pytest.raises(ApiError, match="not a number"):
            request_from_wire(json.loads('{"op": "range", "low": NaN, "high": 1.0}'))
        with pytest.raises(ApiError, match="at least one range"):
            MultiRangeQuery(ranges=())
        with pytest.raises(ApiError, match="deadline"):
            RequestOptions(deadline=0.0)
        with pytest.raises(ApiError, match="replicas"):
            RequestOptions(replicas=0)
        # replicas is the write-copy count: a query refuses it
        with pytest.raises(ApiError, match="inserts only"):
            RangeQuery(low=0.0, high=1.0, options=RequestOptions(replicas=2))
        with pytest.raises(ApiError, match="inserts only"):
            MultiRangeQuery(ranges=((0.0, 1.0),), options=RequestOptions(replicas=2))
        with pytest.raises(ApiError, match="inserts only"):
            RangeQuery(low=0.0, high=1.0, options=RequestOptions(deadline=9.0, replicas=3))
        assert Insert(value=1.0, options=RequestOptions(replicas=2)).options.replicas == 2


class TestJobConversion:
    def test_pira_job(self):
        job = QueryJob(arrival=1.0, origin="010", low=5.0, high=9.0)
        request = request_from_job(job)
        assert isinstance(request, RangeQuery)
        assert (request.low, request.high) == (5.0, 9.0)
        assert request.options.origin == "010"

    def test_mira_job(self):
        job = QueryJob(arrival=0.0, origin="010", ranges=((0.0, 1.0), (2.0, 3.0)))
        request = request_from_job(job)
        assert isinstance(request, MultiRangeQuery)
        assert request.ranges == ((0.0, 1.0), (2.0, 3.0))
        assert request.options == RequestOptions(origin="010")


class TestReplies:
    def make_result(self, complete=True, matches=0):
        result = RangeQueryResult(origin="010", query_id=1)
        result.destinations = {"012": 2}
        for index in range(matches):
            result.matches.append(None)
        if not complete:
            result.resilience.subtrees_lost = 1
        return result

    def test_query_reply_status_drives_ok(self):
        ok = QueryReply(status="ok", latency=0.1, result=self.make_result())
        partial = QueryReply(status="partial", latency=0.1, result=self.make_result(False))
        assert ok.ok and not partial.ok

    def test_decode_result_payload(self):
        payload = {
            "ok": True,
            "type": "result",
            "status": "ok",
            "latency": 0.25,
            "result": self.make_result().to_wire(),
        }
        reply = reply_from_payload(RangeQuery(low=0.0, high=1.0), payload)
        assert isinstance(reply, QueryReply)
        assert reply.latency == 0.25
        assert reply.result.destinations == {"012": 2}

    @pytest.mark.parametrize(
        "damage, complaint",
        [
            (lambda wire: wire["matches"].update(key=encode_column([1.0])), "unequal length"),
            (lambda wire: wire["matches"]["key"].update(f64="AAAA AAAA"), "not valid base64"),
            (lambda wire: wire["matches"]["key"].update(f64="AAAAAAAA"), "6 bytes is not a whole"),
            (lambda wire: wire["matches"]["key"].update(f64=[1.0]), "f64 is list, not a string"),
            (lambda wire: wire["matches"]["key"].update(f32=""), r"keys beside 'f64': \['f32'\]"),
            (lambda wire: wire["matches"].update(key=7), "neither a list nor a packed"),
            (lambda wire: wire["matches"].pop("value"), "missing"),
            (lambda wire: wire.pop("matches"), "KeyError"),
            (lambda wire: wire.update(query_id=None), "TypeError"),
        ],
    )
    def test_malformed_result_payload_is_an_api_error(self, damage, complaint):
        result = self.make_result()
        result.matches = [StoredObject("0101", 1.0, 1.0), StoredObject("0102", 2.0, 2.0)]
        wire = result.to_wire()
        damage(wire)
        payload = {"ok": True, "type": "result", "status": "ok", "latency": 0.25, "result": wire}
        with pytest.raises(ApiError, match=f"malformed result payload.*({complaint})"):
            reply_from_payload(RangeQuery(low=0.0, high=1.0), payload)

    def test_decode_error_payload(self):
        with pytest.raises(ApiError, match="boom"):
            reply_from_payload(Ping(), {"ok": False, "error": "boom"})

    def test_decode_unknown_type(self):
        with pytest.raises(ApiError, match="undecodable"):
            reply_from_payload(Ping(), {"ok": True, "type": "mystery"})
