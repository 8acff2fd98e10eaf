"""Unit tests for the overlay network model."""

from __future__ import annotations

import pytest

from repro.sim.network import (
    HopLatencyModel,
    Message,
    NetworkError,
    OverlayNetwork,
    UniformLatencyModel,
)
from repro.sim.rng import DeterministicRNG


class EchoNode:
    """Test node: records received messages, optionally replies once."""

    def __init__(self, node_id, reply_to=None):
        self.node_id = node_id
        self.received = []
        self.reply_to = reply_to

    def handle_message(self, network, message):
        self.received.append(message)
        if self.reply_to is not None:
            target, self.reply_to = self.reply_to, None
            network.send(
                Message(sender=self.node_id, receiver=target, kind="reply", hop=message.hop + 1)
            )


class TestRegistration:
    def test_register_and_lookup(self):
        overlay = OverlayNetwork()
        node = EchoNode("a")
        overlay.register(node)
        assert overlay.node("a") is node
        assert overlay.has_node("a")
        assert len(overlay.node_ids()) == 1

    def test_unknown_node_raises(self):
        with pytest.raises(NetworkError):
            OverlayNetwork().node("ghost")

    def test_unregister_removes_node(self):
        overlay = OverlayNetwork()
        overlay.register(EchoNode("a"))
        overlay.unregister("a")
        assert not overlay.has_node("a")

    def test_send_to_unknown_node_raises(self):
        overlay = OverlayNetwork()
        overlay.register(EchoNode("a"))
        with pytest.raises(NetworkError):
            overlay.send(Message(sender="a", receiver="ghost", kind="q"))


class TestDelivery:
    def test_message_delivered_after_one_hop_latency(self):
        overlay = OverlayNetwork()
        a, b = EchoNode("a"), EchoNode("b")
        overlay.register(a)
        overlay.register(b)
        message = Message(sender="a", receiver="b", kind="query", send=7)
        overlay.send(message)
        overlay.run()
        assert len(b.received) == 1
        assert b.received[0] is message
        assert overlay.simulator.now == pytest.approx(1.0)

    def test_messages_counted_total_and_per_kind(self):
        overlay = OverlayNetwork()
        b = EchoNode("b")
        overlay.register(EchoNode("a"))
        overlay.register(b)
        overlay.send(Message(sender="a", receiver="b", kind="query"))
        overlay.send(Message(sender="a", receiver="b", kind="reply"))
        overlay.send(Message(sender="a", receiver="b", kind="query"))
        overlay.run()
        # One total over every kind; the per-kind split is the receiver's.
        assert overlay.messages_sent == 3
        kinds = [message.kind for message in b.received]
        assert (kinds.count("query"), kinds.count("reply")) == (2, 1)

    def test_reply_chain_advances_time_per_hop(self):
        overlay = OverlayNetwork()
        a = EchoNode("a")
        b = EchoNode("b", reply_to="a")
        overlay.register(a)
        overlay.register(b)
        overlay.send(Message(sender="a", receiver="b", kind="query", hop=1))
        overlay.run()
        assert len(a.received) == 1
        assert a.received[0].hop == 2
        assert overlay.simulator.now == pytest.approx(2.0)

    def test_message_to_departed_node_is_undeliverable(self):
        overlay = OverlayNetwork()
        overlay.register(EchoNode("a"))
        overlay.register(EchoNode("b"))
        overlay.send(Message(sender="a", receiver="b", kind="query"))
        overlay.unregister("b")
        overlay.run()
        assert overlay.messages_undeliverable == 1

    def test_drop_filter_drops_matching_messages(self, drop_when):
        overlay = OverlayNetwork()
        a, b = EchoNode("a"), EchoNode("b")
        overlay.register(a)
        overlay.register(b)
        drop_when(overlay, lambda message: message.kind == "query")
        overlay.send(Message(sender="a", receiver="b", kind="query"))
        overlay.send(Message(sender="a", receiver="b", kind="data"))
        overlay.run()
        assert len(b.received) == 1
        assert b.received[0].kind == "data"
        assert overlay.messages_dropped == 1

    def test_fresh_overlay_counts_nothing(self):
        overlay = OverlayNetwork()
        counts = (
            overlay.messages_sent,
            overlay.messages_dropped,
            overlay.messages_duplicated,
            overlay.messages_undeliverable,
        )
        assert counts == (0, 0, 0, 0)
        assert overlay.drops_by_reason == {}

    def test_dropped_sends_count_as_sent_and_by_reason(self, drop_when):
        overlay = OverlayNetwork()
        overlay.register(EchoNode("a"))
        overlay.register(EchoNode("b"))
        drop_when(overlay, lambda message: message.kind == "query")
        overlay.send(Message(sender="a", receiver="b", kind="query"))
        overlay.send(Message(sender="a", receiver="b", kind="data"))
        overlay.run()
        assert (overlay.messages_sent, overlay.messages_dropped) == (2, 1)
        assert overlay.drops_by_reason == {"drop": 1}
        assert overlay.messages_undeliverable == 0

    def test_lost_messages_reach_their_on_drop_hook(self, drop_when):
        overlay = OverlayNetwork()
        overlay.register(EchoNode("a"))
        overlay.register(EchoNode("b"))
        lost = []
        drop_when(overlay, lambda message: message.kind == "query")
        at_send = Message(sender="a", receiver="b", kind="query", on_drop=lost.append)
        at_delivery = Message(sender="a", receiver="b", kind="data", on_drop=lost.append)
        overlay.send(at_send)
        overlay.send(at_delivery)
        # A lost message without a hook is still counted, just not reported.
        overlay.send(Message(sender="a", receiver="b", kind="data"))
        overlay.unregister("b")
        overlay.run()
        assert lost == [at_send, at_delivery]
        assert (overlay.messages_dropped, overlay.messages_undeliverable) == (1, 2)
        # Loss to a departed receiver carries no fault reason.
        assert overlay.drops_by_reason == {"drop": 1}


class TestLatencyModels:
    def test_hop_latency_is_always_one(self):
        model = HopLatencyModel()
        assert model.latency(Message(sender="a", receiver="b", kind="q")) == 1.0

    def test_uniform_latency_within_bounds(self):
        model = UniformLatencyModel(5.0, 10.0, DeterministicRNG(1))
        for _ in range(50):
            latency = model.latency(Message(sender="a", receiver="b", kind="q"))
            assert 5.0 <= latency <= 10.0

    def test_uniform_latency_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatencyModel(10.0, 5.0, DeterministicRNG(1))
