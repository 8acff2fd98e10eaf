"""Property-based tests for FISSIONE topology maintenance and routing."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fissione.network import FissioneNetwork
from repro.fissione.routing import route
from repro.fissione.stabilize import check_topology
from repro.kautz import strings as ks
from repro.sim.rng import DeterministicRNG


def assert_prefix_index_matches_brute_force(network: FissioneNetwork) -> None:
    """The incremental maximum length and the bisect-answered prefix
    questions agree with a scan of the membership."""
    peer_ids = network.peer_ids()
    assert network.max_id_length() == max(map(len, peer_ids))
    prefixes = {peer_id[:cut] for peer_id in peer_ids for cut in range(len(peer_id) + 1)}
    # Strings no peer extends: inside a peer's zone, outside the alphabet,
    # before every PeerID, and not a Kautz string at all.
    for peer_id in peer_ids:
        prefixes.add(peer_id + ks.allowed_symbols(peer_id[-1], base=network.base)[0])
        prefixes.add(peer_id[:-1] + "3")
    prefixes.update(["3", "/", "00"])
    for prefix in prefixes:
        extending = [peer_id for peer_id in peer_ids if peer_id.startswith(prefix)]
        assert network.peers_with_prefix(prefix) == extending
        compatible = extending or [
            peer_id for peer_id in peer_ids if prefix.startswith(peer_id)
        ]
        assert network.compatible_peers(prefix) == compatible


class TestTopologyProperties:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=3, max_value=120), st.integers(min_value=0, max_value=1000))
    def test_random_build_always_healthy(self, num_peers, seed):
        network = FissioneNetwork.build(
            num_peers, DeterministicRNG(seed).substream("topology"), object_id_length=20
        )
        report = check_topology(network)
        assert report.healthy
        assert report.within_paper_bounds()

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=0, max_value=500),
        st.lists(st.sampled_from(["join", "leave"]), min_size=1, max_size=40),
    )
    def test_arbitrary_churn_sequences_preserve_invariants(self, seed, operations):
        rng = DeterministicRNG(seed)
        network = FissioneNetwork.build(20, rng.substream("topology"), object_id_length=20)
        for index, operation in enumerate(operations):
            if operation == "join":
                network.join(rng=rng.substream("join", index))
            elif network.size > network.base + 1:
                victim = network.random_peer(rng.substream("leave", index)).peer_id
                network.leave(victim)
            assert_prefix_index_matches_brute_force(network)
        report = check_topology(network)
        assert report.covers_namespace
        assert report.prefix_free
        assert report.neighborhood_violations == 0

    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=0, max_value=10 ** 6))
    def test_routing_reaches_owner_with_bounded_hops(self, seed, key_seed):
        network = FissioneNetwork.build(
            60, DeterministicRNG(seed).substream("topology"), object_id_length=20
        )
        rng = DeterministicRNG(key_seed)
        object_id = ks.unrank(
            key_seed % ks.space_size(2, 20), 20, base=2
        )
        source = network.random_peer(rng).peer_id
        path = route(network, source, object_id)
        assert path.destination == network.owner_id(object_id)
        assert path.hops <= len(source)
