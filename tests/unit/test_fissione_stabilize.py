"""Unit tests for topology checks and churn handling."""

from __future__ import annotations

from repro.fissione.naming import kautz_hash
from repro.fissione.network import FissioneNetwork
from repro.fissione.stabilize import TopologyReport, check_topology, churn
from repro.sim.rng import DeterministicRNG


def build(num_peers: int, seed: int = 1) -> FissioneNetwork:
    return FissioneNetwork.build(
        num_peers, DeterministicRNG(seed).substream("topology"), object_id_length=24
    )


class TestTopologyReport:
    def test_healthy_network_report(self):
        report = check_topology(build(64))
        assert report.healthy
        assert report.peer_count == 64
        assert report.covers_namespace
        assert report.prefix_free
        assert report.neighborhood_violations == 0
        assert report.within_paper_bounds()

    def test_report_detects_missing_coverage(self):
        network = build(16)
        # Manually remove a peer without repair: the cover must break.
        victim = network.peer_ids()[3]
        network._remove_peer(victim)  # white-box: simulate an un-repaired failure
        report = check_topology(network)
        assert not report.covers_namespace
        assert not report.healthy

    def test_report_detects_prefix_violation(self):
        network = build(16)
        from repro.fissione.peer import FissionePeer

        longest = max(network.peer_ids(), key=len)
        # Add a peer whose id extends an existing one: prefix-freeness breaks.
        extension = longest + ("0" if longest[-1] != "0" else "1")
        network._add_peer(FissionePeer(peer_id=extension))
        report = check_topology(network)
        assert not report.prefix_free

    def test_small_networks_trivially_within_bounds(self):
        report = TopologyReport(
            peer_count=3,
            covers_namespace=True,
            prefix_free=True,
            neighborhood_violations=0,
            max_id_length=1,
            average_id_length=1.0,
            average_out_degree=2.0,
            max_out_degree=2,
        )
        assert report.within_paper_bounds()


class TestChurn:
    def test_churn_preserves_invariants(self):
        network = build(60)
        rng = DeterministicRNG(11)
        joins, leaves = churn(network, rng, joins=30, leaves=20)
        assert joins == 30
        assert leaves == 20
        assert network.size == 70
        report = check_topology(network)
        assert report.healthy
        assert report.within_paper_bounds()

    def test_churn_skips_leaves_at_minimum_size(self):
        network = FissioneNetwork(object_id_length=24)
        network.seed_initial()
        rng = DeterministicRNG(12)
        joins, leaves = churn(network, rng, joins=0, leaves=5)
        assert joins == 0
        assert leaves == 0
        assert network.size == 3

    def test_heavy_churn_keeps_objects_reachable(self):
        network = build(40)
        rng = DeterministicRNG(13)
        object_ids = []
        for index in range(30):
            object_id = kautz_hash(f"object-{index}", length=network.object_id_length)
            network.publish(object_id, f"object-{index}", index)
            object_ids.append(object_id)
        churn(network, rng, joins=40, leaves=35)
        for index, object_id in enumerate(object_ids):
            values = [stored.value for stored in network.lookup(object_id)]
            assert values == [index]
