"""Unit tests for the FISSIONE overlay: membership, zones, neighbours."""

from __future__ import annotations

import hashlib
import sys
from typing import List

import pytest

from repro.core.deployment import Deployment
from repro.fissione.network import FissioneError, FissioneNetwork
from repro.fissione.stabilize import check_topology
from repro.kautz import strings as ks
from repro.sim.network import OverlayNetwork
from repro.sim.rng import DeterministicRNG
from repro.storage.memory import MemoryStore


def build(num_peers: int, seed: int = 1, object_id_length: int = 24) -> FissioneNetwork:
    return FissioneNetwork.build(
        num_peers, DeterministicRNG(seed).substream("topology"), object_id_length=object_id_length
    )


class TestSeeding:
    def test_seed_initial_creates_three_peers(self):
        network = FissioneNetwork(object_id_length=24)
        network.seed_initial()
        assert network.size == 3
        assert sorted(network.peer_ids()) == ["0", "1", "2"]

    def test_double_seed_raises(self):
        network = FissioneNetwork(object_id_length=24)
        network.seed_initial()
        with pytest.raises(FissioneError):
            network.seed_initial()

    def test_build_requires_minimum_size(self):
        with pytest.raises(FissioneError):
            build(2)

    def test_short_object_id_rejected(self):
        with pytest.raises(FissioneError):
            FissioneNetwork(object_id_length=2)


class TestCoverInvariants:
    @pytest.mark.parametrize("num_peers", [3, 4, 7, 16, 50, 120])
    def test_peer_ids_are_prefix_free_and_cover_namespace(self, num_peers):
        network = build(num_peers)
        report = check_topology(network)
        assert report.prefix_free
        assert report.covers_namespace
        assert report.peer_count == num_peers

    def test_neighborhood_invariant_holds(self):
        network = build(100)
        assert check_topology(network).neighborhood_violations == 0

    def test_id_lengths_within_paper_bounds(self):
        network = build(128)
        report = check_topology(network)
        assert report.within_paper_bounds()

    def test_all_peer_ids_are_valid_kautz_strings(self):
        network = build(40)
        for peer_id in network.peer_ids():
            assert ks.is_kautz_string(peer_id, base=2)


class TestOwnership:
    def test_every_key_has_exactly_one_owner(self):
        network = build(30, object_id_length=8)
        owners = {}
        for key in ks.kautz_strings_with_prefix("", 8, base=2):
            owner = network.owner_id(key)
            assert key.startswith(owner)
            owners.setdefault(owner, 0)
            owners[owner] += 1
        assert set(owners) == set(network.peer_ids())

    def test_owner_of_prefix_key(self):
        network = build(30)
        some_peer = network.peer_ids()[5]
        assert network.owner_id(some_peer) == some_peer

    def test_owner_on_empty_network_raises(self):
        with pytest.raises(FissioneError):
            FissioneNetwork(object_id_length=24).owner_id("0101")


class TestNeighbours:
    def test_out_neighbors_have_required_form(self):
        # Section 3: out-neighbours of u1..ub have ids u2..ub q1..qm, 0<=m<=2.
        network = build(80)
        for peer_id in network.peer_ids():
            tail = peer_id[1:]
            for neighbor in network.out_neighbors(peer_id):
                if tail:
                    assert neighbor.startswith(tail) or tail.startswith(neighbor)
                assert abs(len(neighbor) - len(peer_id)) <= 1

    def test_in_out_consistency(self):
        network = build(60)
        for peer_id in network.peer_ids():
            for neighbor in network.out_neighbors(peer_id):
                assert peer_id in network.in_neighbors(neighbor)

    def test_no_self_loops(self):
        network = build(60)
        for peer_id in network.peer_ids():
            assert peer_id not in network.out_neighbors(peer_id)
            assert peer_id not in network.in_neighbors(peer_id)

    def test_average_out_degree_is_constant(self):
        small, large = build(50), build(200)
        assert small.average_degree() == pytest.approx(2.0, abs=0.4)
        assert large.average_degree() == pytest.approx(2.0, abs=0.4)

    def test_unknown_peer_raises(self):
        network = build(20)
        with pytest.raises(FissioneError):
            network.out_neighbors("0000")

    def test_compatible_peers_of_unknown_prefix(self):
        network = build(30)
        # Any valid prefix must resolve to at least one compatible peer.
        assert network.compatible_peers("0121") != []
        assert network.compatible_peers("") == network.peer_ids()


class TestJoinLeave:
    def test_join_increases_size_by_one(self):
        network = build(10)
        network.join(rng=DeterministicRNG(2))
        assert network.size == 11
        assert check_topology(network).healthy

    def test_join_with_target_key_splits_owner_zone(self):
        network = build(10, object_id_length=24)
        key = ks.min_extension("010", 24)
        owner_before = network.owner_id(key)
        network.join(target_key=key)
        owner_after = network.owner_id(key)
        assert len(owner_after) >= len(owner_before)
        assert check_topology(network).healthy

    def test_join_without_arguments_raises(self):
        network = build(10)
        with pytest.raises(FissioneError):
            network.join()

    def test_leave_decreases_size_by_one(self):
        network = build(20)
        victim = network.peer_ids()[7]
        network.leave(victim)
        assert network.size == 19
        assert not network.has_peer(victim) or network.peer(victim) is not None
        assert check_topology(network).healthy

    def test_leave_unknown_peer_raises(self):
        network = build(10)
        with pytest.raises(FissioneError):
            network.leave("00000")

    def test_cannot_shrink_below_initial_size(self):
        network = FissioneNetwork(object_id_length=24)
        network.seed_initial()
        with pytest.raises(FissioneError):
            network.leave("0")

    def test_objects_survive_leave(self):
        network = build(20, object_id_length=16)
        object_id = ks.min_extension("012", 16)
        network.publish(object_id, key=1.0, value="keep-me")
        owner = network.owner_id(object_id)
        network.leave(owner)
        assert [stored.value for stored in network.lookup(object_id)] == ["keep-me"]

    def test_objects_survive_join_split(self):
        network = build(10, object_id_length=16)
        object_id = ks.max_extension("21", 16)
        network.publish(object_id, key=2.0, value="still-here")
        network.join(target_key=object_id)
        assert [stored.value for stored in network.lookup(object_id)] == ["still-here"]


class TestPublishLookup:
    def test_publish_places_object_at_owner(self):
        network = build(25, object_id_length=16)
        object_id = ks.min_extension("21", 16)
        peer = network.publish(object_id, key=3.0, value="data")
        assert object_id.startswith(peer.peer_id)
        assert network.total_objects() == 1

    def test_publish_named_roundtrip(self):
        network = build(25, object_id_length=16)
        object_id, _peer = network.publish_named("alice", value="record")
        assert [stored.value for stored in network.lookup(object_id)] == ["record"]

    def test_publish_invalid_object_id_rejected(self):
        network = build(10, object_id_length=16)
        with pytest.raises(ks.KautzStringError):
            network.publish("0011" * 4, key=1.0, value=None)
        with pytest.raises(FissioneError):
            network.publish("0101", key=1.0, value=None)  # wrong length

    def test_random_peer_is_member(self):
        network = build(30)
        rng = DeterministicRNG(4)
        for _ in range(10):
            assert network.has_peer(network.random_peer(rng).peer_id)


class TestBuildEquivalence:
    """The build is pinned by what it produces and by how much work it does —
    never by a clock."""

    @pytest.mark.parametrize(
        "num_peers, digest",
        [
            (1024, "c72e5da868"),
            (4096, "f4dcbe7eda"),
            (8192, "ae81a44d86"),
            (16384, "4f9fd016d0"),
        ],
    )
    def test_topology_digest_is_pinned(self, num_peers, digest):
        network = build(num_peers, seed=7, object_id_length=32)
        joined = "".join(network.peer_ids()).encode()
        assert hashlib.sha1(joined).hexdigest()[:10] == digest

    def test_build_work_grows_linearly(self):
        """Quadrupling N must not multiply the Python-level calls of a build
        by more than 5: a per-join rescan of the membership shows up here as
        a ratio near 14, whatever the machine."""

        def calls_to_build(num_peers: int) -> int:
            rng = DeterministicRNG(7).substream("topology")
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            previous = sys.getprofile()
            sys.setprofile(count)
            try:
                FissioneNetwork.build(num_peers, rng, object_id_length=24)
            finally:
                sys.setprofile(previous)
            return calls

        assert calls_to_build(2048) <= 5 * calls_to_build(512)


def list_building_replica_walk(network: FissioneNetwork, object_id: str) -> List[str]:
    """The placement walk as first written (membership list, ``not in``
    scan), over a brute-force prefix filter — the oracle for
    :meth:`FissioneNetwork.replica_order`."""
    owner_id = network.owner_id(object_id)
    chosen = [owner_id]
    for cut in range(len(owner_id) - 1, -1, -1):
        for sibling in network.peer_ids():
            if sibling.startswith(owner_id[:cut]) and sibling not in chosen:
                chosen.append(sibling)
    return chosen


class CountingStore(MemoryStore):
    """A memory backend that records which peers were read."""

    def __init__(self, peer_id: str, reads: List[str]) -> None:
        super().__init__()
        self._peer_id = peer_id
        self._reads = reads

    def get(self, object_id):
        self._reads.append(self._peer_id)
        return super().get(object_id)


class TestReplicaPlacement:
    def test_replica_peers_match_list_building_walk(self):
        network = build(48, seed=7, object_id_length=16)
        rng = DeterministicRNG(11)
        for _ in range(6):
            object_id = network.random_object_id(rng)
            full = list_building_replica_walk(network, object_id)
            assert sorted(full) == network.peer_ids()
            assert list(network.replica_order(object_id)) == full
            for replicas in range(1, network.size + 1):
                assert network.replica_peers(object_id, replicas) == full[:replicas]
            assert network.replica_peers(object_id, network.size + 5) == full

    def test_replica_peers_rejects_non_positive_count(self):
        with pytest.raises(FissioneError):
            build(10).replica_peers(ks.min_extension("0", 24), 0)

    def test_failover_hit_reads_one_peer_and_miss_reads_each_once(self):
        reads: List[str] = []
        network = FissioneNetwork.build(
            64,
            DeterministicRNG(7).substream("topology"),
            object_id_length=16,
            store_factory=lambda peer_id: CountingStore(peer_id, reads),
        )
        down: List[str] = []
        deployment = Deployment(network, OverlayNetwork(), (0.0, 1000.0), down=lambda: down)
        stored_id = ks.min_extension("102", 16)
        owner_id = deployment.write(stored_id, key=1.0, value="x", replicas=3)[0]

        reads.clear()
        holder, found = deployment.read(stored_id)
        assert holder == owner_id and [stored.value for stored in found] == ["x"]
        assert reads == [owner_id]

        reads.clear()
        down.append(owner_id)
        holder, found = deployment.read(stored_id)
        assert holder == network.replica_peers(stored_id, 2)[1]
        assert reads == [holder]

        reads.clear()
        missing_id = ks.max_extension("21", 16)
        down.clear()
        assert deployment.read(missing_id) == (None, [])
        assert reads == list(network.replica_order(missing_id))
