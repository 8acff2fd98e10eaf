"""Unit tests for FISSIONE peers (zone ownership and local storage)."""

from __future__ import annotations

import pytest

from repro.fissione.peer import FissionePeer


class TestOwnership:
    def test_owns_extensions_of_its_id(self):
        peer = FissionePeer(peer_id="012")
        assert peer.owns("0120101")
        assert peer.owns("0121212")
        assert not peer.owns("0210101")
        assert not peer.owns("01")

    def test_node_id_alias(self):
        peer = FissionePeer(peer_id="012")
        assert peer.node_id == "012"
        assert len(peer.peer_id) == 3


class TestStorage:
    def test_put_and_get(self):
        peer = FissionePeer(peer_id="01")
        peer.put("010101", key=5.0, value="payload")
        stored = peer.get("010101")
        assert len(stored) == 1
        assert stored[0].key == 5.0
        assert stored[0].value == "payload"

    def test_put_rejects_foreign_object(self):
        peer = FissionePeer(peer_id="01")
        with pytest.raises(ValueError):
            peer.put("020101", key=5.0, value=None)

    def test_get_missing_returns_empty(self):
        assert FissionePeer(peer_id="01").get("010101") == []

    def test_multiple_objects_same_id(self):
        peer = FissionePeer(peer_id="01")
        peer.put("010101", key=1.0, value="a")
        peer.put("010101", key=1.0, value="b")
        assert peer.object_count() == 2
        assert len(peer.get("010101")) == 2

    def test_objects_lists_everything(self):
        peer = FissionePeer(peer_id="01")
        peer.put("010101", key=1.0, value="a")
        peer.put("012121", key=2.0, value="b")
        assert {stored.value for stored in peer.objects()} == {"a", "b"}

    def test_take_objects_with_prefix_moves_matching(self):
        peer = FissionePeer(peer_id="01")
        peer.put("010101", key=1.0, value="left")
        peer.put("012121", key=2.0, value="right")
        moved = peer.take_objects_with_prefix("012")
        assert [stored.value for stored in moved] == ["right"]
        assert peer.object_count() == 1
        assert peer.get("010101")[0].value == "left"

    def test_absorb_adds_objects(self):
        donor = FissionePeer(peer_id="01")
        donor.put("010101", key=1.0, value="x")
        receiver = FissionePeer(peer_id="0")
        receiver.absorb(donor.objects())
        assert receiver.object_count() == 1
