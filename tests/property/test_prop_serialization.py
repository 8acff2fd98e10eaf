"""Property tests: wire serialization is the identity after a JSON trip.

The gateway ships :class:`RangeQueryResult` as JSON, so encode→decode
must reproduce *every* field exactly — including tuple-typed keys,
forwarding-step triples and the resilience ledger's bool.  Hypothesis
builds structurally arbitrary instances and asserts
``from_wire(json.loads(json.dumps(to_wire(x)))) == x``.

Lists of stored objects travel as columns
(:func:`repro.storage.base.objects_to_wire`); that form must be the
identity under both body encodings, ``json`` and ``binframe``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.binframe import decode_binary, encode_binary
from repro.core.pira import RangeQueryResult
from repro.faults.resilience import ResilienceStats
from repro.fissione.peer import StoredObject
from repro.storage.base import objects_from_wire, objects_to_wire

# -- strategies --------------------------------------------------------------

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
peer_ids = st.text(alphabet="012", min_size=1, max_size=8)
counts = st.integers(min_value=0, max_value=10**6)

#: JSON-compatible values, plus tuples (which the codec must preserve)
wire_values = st.recursive(
    st.one_of(st.none(), st.booleans(), counts, finite_floats, st.text(max_size=12)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=6).filter(lambda k: k != "__tuple__"), children, max_size=3),
    ),
    max_leaves=8,
)

#: object keys: the scalars PIRA stores, MIRA's tuples of floats, and
#: nested tuples (nothing publishes those today; the codec must not care)
object_keys = st.one_of(
    finite_floats,
    counts,
    st.text(max_size=12),
    st.none(),
    st.lists(finite_floats, min_size=1, max_size=3).map(tuple),
    st.tuples(finite_floats, st.tuples(st.text(max_size=4), counts)),
)

stored_objects = st.builds(
    StoredObject,
    object_id=st.text(alphabet="012", min_size=1, max_size=16),
    key=object_keys,
    value=wire_values,
)

resilience_stats = st.builds(
    ResilienceStats,
    drops=counts,
    timeouts=counts,
    retries=counts,
    reroutes=counts,
    subtrees_lost=counts,
    recovered_destinations=counts,
    deadline_expired=st.booleans(),
)

range_results = st.builds(
    RangeQueryResult,
    origin=peer_ids,
    query_id=st.integers(min_value=1, max_value=10**9),
    destinations=st.dictionaries(peer_ids, st.integers(min_value=0, max_value=64), max_size=5),
    messages=counts,
    matches=st.lists(stored_objects, max_size=4),
    forwarding_steps=st.lists(
        st.tuples(peer_ids, peer_ids, st.integers(min_value=0, max_value=64)), max_size=5
    ),
    resilience=resilience_stats,
)


def json_trip(wire):
    """The exact transformation a frame undergoes on the wire."""
    return json.loads(json.dumps(wire))


def binframe_trip(wire):
    """The same trip under the negotiated binary body encoding."""
    return decode_binary(encode_binary(wire))


# -- identities --------------------------------------------------------------


@given(stats=resilience_stats)
def test_resilience_stats_round_trip(stats):
    assert ResilienceStats.from_dict(json_trip(stats.as_dict())) == stats


@pytest.mark.parametrize("trip", [json_trip, binframe_trip])
@given(objects=st.lists(stored_objects, max_size=6))
def test_object_columns_round_trip(trip, objects):
    rebuilt = objects_from_wire(trip(objects_to_wire(objects)))
    assert rebuilt == objects
    # ``==`` cannot tell 1 from 1.0 or True; the repr can
    assert repr(rebuilt) == repr(objects)


@settings(max_examples=50)
@given(result=range_results)
def test_range_query_result_round_trip(result):
    rebuilt = RangeQueryResult.from_wire(json_trip(result.to_wire()))
    assert rebuilt == result
    # spot-check the typed invariants JSON tends to destroy
    assert all(isinstance(step, tuple) for step in rebuilt.forwarding_steps)
    assert isinstance(rebuilt.resilience.deadline_expired, bool)
