"""One send, one record: the executor's pending send is the message.

* **Golden wire** — a ``msg`` frame is byte-for-byte what it was when the
  message carried its fields in a metadata dict (the literals below were
  encoded by that code), so live frames, flight dumps and cross-commit
  replay are unchanged; the sender-side state and the local hooks never
  cross.
* **Identity** — on the simulator the handler receives the very object
  the executor opened; a retry re-sends it, and a duplicated copy of it is
  dropped by send id.
* **Send sequence under faults** — a seeded 256-peer run under loss,
  duplication and crash-stop with rerouting reproduces, query by query,
  the messages, forwarding steps, destinations and resilience ledger
  recorded before the change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.core.armada import ArmadaSystem
from repro.core.resumable import _PendingSend
from repro.faults import CrashStop, Duplicate, FaultInjector, IidLoss, ResiliencePolicy
from repro.runtime.protocol import (
    decode_frame,
    encode_frame,
    encode_frame_binary,
    message_to_wire,
    wire_to_message,
)
from repro.sim.network import Message
from repro.sim.rng import DeterministicRNG


def hook(*args):
    return None


#: (fields, JSON frame, binary frame): a tree hop, a detour, a traced send
GOLDEN = [
    (
        dict(sender="0121", receiver="1210", kind="pira", hop=3, query_id=42,
             level=2, branch=1, send=17),
        b'\x00\x00\x00|{"type":"msg","kind":"pira","sender":"0121","receiver":"1210",'
        b'"hop":3,"query_id":42,"meta":{"level":2,"branch":1,"send":17}}',
        b"\x00\x00\x00Y\xc1\x87\xa4type\xa3msg\xa4kind\xa4pira\xa6sender\xa40121"
        b"\xa8receiver\xa41210\xa3hop\x03\xa8query_id*\xa4meta\x83\xa5level\x02"
        b"\xa6branch\x01\xa4send\x11",
    ),
    (
        dict(sender="0121", receiver="2101", kind="pira", hop=7, query_id=42,
             level=5, branch=0, send=99, latency=4.0),
        b'\x00\x00\x00\x8a{"type":"msg","kind":"pira","sender":"0121","receiver":"2101",'
        b'"hop":7,"query_id":42,"meta":{"level":5,"branch":0,"send":99,"latency":4.0}}',
        b"\x00\x00\x00j\xc1\x87\xa4type\xa3msg\xa4kind\xa4pira\xa6sender\xa40121"
        b"\xa8receiver\xa42101\xa3hop\x07\xa8query_id*\xa4meta\x84\xa5level\x05"
        b"\xa6branch\x00\xa4sendc\xa7latency\xcb@\x10\x00\x00\x00\x00\x00\x00",
    ),
    (
        dict(sender="0121", receiver="1210", kind="mira", hop=1, query_id=8,
             level=1, branch=2, send=3, trace="mira-8", span=12),
        b'\x00\x00\x00\x95{"type":"msg","kind":"mira","sender":"0121","receiver":"1210",'
        b'"hop":1,"query_id":8,"meta":{"level":1,"branch":2,"send":3,"trace":"mira-8",'
        b'"span":12}}',
        b"\x00\x00\x00l\xc1\x87\xa4type\xa3msg\xa4kind\xa4mira\xa6sender\xa40121"
        b"\xa8receiver\xa41210\xa3hop\x01\xa8query_id\x08\xa4meta\x85\xa5level\x01"
        b"\xa6branch\x02\xa4send\x03\xa5trace\xa6mira-8\xa4span\x0c",
    ),
]

GOLDEN_IDS = ["tree-hop", "detour", "traced"]

#: the fields a ``msg`` frame carries (everything but the local hooks)
WIRE_FIELDS = [
    f.name for f in dataclasses.fields(Message) if f.name not in ("handler", "on_drop")
]


def pending_send(fields):
    """The executor's form of the same send: hooks and sender-side state set."""
    return _PendingSend(
        **fields,
        handler=hook,
        on_drop=hook,
        attempts=2,
        timer=object(),
        detour=True,
        hop_span=object(),
        region=object(),
    )


class TestGoldenWire:
    @pytest.mark.parametrize("fields, json_frame, binary_frame", GOLDEN, ids=GOLDEN_IDS)
    def test_frames_are_the_metadata_dicts_bytes(self, fields, json_frame, binary_frame):
        for message in (Message(**fields), pending_send(fields)):
            assert encode_frame(message_to_wire(message)) == json_frame
            assert encode_frame_binary(message_to_wire(message)) == binary_frame

    @pytest.mark.parametrize("fields, json_frame, binary_frame", GOLDEN, ids=GOLDEN_IDS)
    def test_every_field_round_trips_and_the_hooks_never_cross(
        self, fields, json_frame, binary_frame
    ):
        sent = pending_send(fields)
        for body in (json_frame[4:], binary_frame[4:]):
            rebuilt = wire_to_message(decode_frame(body, allow_binary=True))
            assert type(rebuilt) is Message
            for name in WIRE_FIELDS:
                assert getattr(rebuilt, name) == getattr(sent, name), name
            assert rebuilt.handler is None and rebuilt.on_drop is None

    def test_a_plain_message_has_an_empty_meta(self):
        frame = message_to_wire(Message(sender="a", receiver="b", kind="pira"))
        assert frame["meta"] == {}
        json.dumps(frame)


def build_system(num_peers: int = 128, seed: int = 7) -> ArmadaSystem:
    system = ArmadaSystem(num_peers=num_peers, seed=seed, attribute_interval=(0.0, 1000.0))
    rng = DeterministicRNG(seed).substream("values")
    system.insert_many([rng.uniform(0.0, 1000.0) for _ in range(500)])
    return system


def record_sends(executor):
    """Wrap ``executor``'s transmit and handler; returns the two logs."""
    transmitted, handled = [], []
    transmit, handler = executor._transmit, executor._handler

    def spy_transmit(state, send_id, pending):
        transmitted.append(pending)
        transmit(state, send_id, pending)

    def spy_handler(peer, network, message):
        handled.append(message)
        handler(peer, network, message)

    executor._transmit = spy_transmit
    executor._handler = spy_handler
    return transmitted, handled


class TestIdentity:
    def test_the_handler_receives_the_executors_own_send(self):
        system = build_system()
        transmitted, handled = record_sends(system.pira)
        result = system.range_query(200.0, 420.0, origin=system.network.peer_ids()[0])
        assert result.messages == len(transmitted) == len(handled) > 10
        assert all(type(message) is _PendingSend for message in handled)
        assert {id(message) for message in handled} == {id(sent) for sent in transmitted}

    def test_a_retry_re_sends_the_same_object_with_the_same_send_id(self):
        system = build_system()
        FaultInjector(system.overlay, [IidLoss(probability=0.2)], seed=3).install()
        system.set_resilience(ResiliencePolicy(per_hop_timeout=3.0, max_retries=2))
        transmitted, _ = record_sends(system.pira)
        result = system.range_query(200.0, 420.0, origin=system.network.peer_ids()[0])
        copies = {}
        for sent in transmitted:
            copies.setdefault(id(sent), []).append((sent, sent.send))
        retried = [sends for sends in copies.values() if len(sends) > 1]
        assert result.resilience.retries == len(transmitted) - len(copies) > 0
        for sends in retried:
            assert all(sent is sends[0][0] and send == sends[0][1] for sent, send in sends)

    def test_duplicated_copies_are_dropped_by_send_id(self):
        reference_system = build_system()
        origin = reference_system.network.peer_ids()[0]
        reference = reference_system.range_query(200.0, 420.0, origin=origin)
        system = build_system()
        FaultInjector(system.overlay, [Duplicate(probability=1.0)], seed=3).install()
        transmitted, handled = record_sends(system.pira)
        result = system.range_query(200.0, 420.0, origin=origin)
        assert len(handled) == 2 * len(transmitted) == 2 * result.messages
        assert result.messages == reference.messages
        assert result.destinations == reference.destinations
        assert sorted(m.object_id for m in result.matches) == sorted(
            m.object_id for m in reference.matches
        )


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


#: per query: messages, digest of forwarding_steps, digest of the sorted
#: destinations, and the resilience ledger — recorded before the change
SEND_SEQUENCE = [
    (39, "c144a976d40d47f9", "22aa8b891b9da6de", (0, 8, 31, 33, 5, 2, 8)),
    (58, "d05a13c507598eb6", "e13559a6ca98870d", (0, 15, 16, 19, 9, 4, 15)),
    (39, "d2207ce85834beaa", "725ee089e3470f02", (0, 7, 16, 17, 4, 1, 7)),
    (63, "8f793f68541b9f51", "9115df24950ec43f", (0, 15, 8, 10, 10, 3, 15)),
    (73, "94ff707cd6f0e5fd", "3b9d3205cf26f1a3", (0, 15, 9, 10, 9, 3, 15)),
    (42, "13ea209c1c3e1cf9", "0e3acf852d2ee3c0", (0, 12, 21, 24, 7, 3, 12)),
    (71, "5696d43c3b6bb923", "d7c2c0d5f22e2104", (0, 12, 8, 8, 8, 2, 12)),
    (49, "6d15420ecbe8d977", "7ec76b359c07282a", (0, 8, 21, 21, 5, 0, 8)),
    (79, "e133717273e48790", "6d40510440e540dc", (0, 11, 9, 10, 6, 1, 11)),
    (77, "069aaba56b7a1939", "27f788415923ee29", (0, 8, 2, 2, 5, 2, 8)),
    (75, "5758d0abc10ddcbd", "bea701f7be2db472", (0, 13, 0, 0, 8, 5, 13)),
    (84, "534904b3b16aab2c", "c9afd85994b0e77c", (0, 15, 0, 0, 9, 6, 15)),
]


def test_send_sequence_under_loss_duplication_and_crash_stop():
    system = ArmadaSystem(
        num_peers=256, seed=33, attribute_intervals=((0.0, 1000.0), (0.0, 1000.0))
    )
    rng = DeterministicRNG(33).substream("values")
    for _ in range(400):
        first, second = rng.uniform(0.0, 1000.0), rng.uniform(0.0, 1000.0)
        system.insert(first)
        system.insert_multi((first, second))
    models = [CrashStop(fraction=0.08, at=0.0), IidLoss(probability=0.05), Duplicate(probability=0.1)]
    FaultInjector(system.overlay, models, seed=5).install()
    system.set_resilience(ResiliencePolicy(per_hop_timeout=3.0, max_retries=1, reroute=True))
    system.overlay.run()
    peers = system.network.peer_ids()
    rows = []
    for index in range(12):
        origin = peers[(index * 37) % len(peers)]
        low = 40.0 + 70.0 * index
        if index % 3 == 2:
            result = system.multi_range_query(((low, low + 150.0), (100.0, 500.0)), origin=origin)
        else:
            result = system.range_query(low, low + 120.0, origin=origin)
        ledger = tuple(value for _, value in sorted(result.resilience.as_dict().items()))
        rows.append(
            (
                result.messages,
                digest(result.forwarding_steps),
                digest(sorted(result.destinations.items())),
                ledger,
            )
        )
    assert rows == SEND_SEQUENCE
