"""Unit tests for PIRA single-attribute range-query processing."""

from __future__ import annotations

import math

import pytest

from repro.core.armada import ArmadaSystem
from repro.core.errors import QueryError
from repro.core.pira import PiraExecutor, RangeQueryResult
from repro.core.single_hash import SingleAttributeNamer
from repro.fissione.network import FissioneNetwork
from repro.sim.network import OverlayNetwork
from repro.sim.rng import DeterministicRNG


class TestRangeQueryResult:
    def test_delay_is_max_destination_hop(self):
        result = RangeQueryResult(origin="01", query_id=1)
        result.destinations = {"a": 3, "b": 7, "c": 5}
        assert result.delay_hops == 7

    def test_empty_result_zero_delay(self):
        result = RangeQueryResult(origin="01", query_id=1)
        assert result.delay_hops == 0
        assert result.destination_count == 0
        assert result.mesg_ratio() == 0.0

    def test_mesg_ratio(self):
        result = RangeQueryResult(origin="01", query_id=1)
        result.destinations = {"a": 1, "b": 2}
        result.messages = 10
        assert result.mesg_ratio() == 5.0


class TestPiraExactness:
    def test_reaches_exactly_the_intersecting_peers(self, loaded_system):
        for low, high in ((100.0, 300.0), (0.0, 5.0), (990.0, 1000.0), (499.0, 501.0)):
            result = loaded_system.range_query(low, high)
            truth = loaded_system.pira.ground_truth_destinations([(low, high)])
            assert set(result.destinations) == truth

    def test_returns_exactly_the_matching_objects(self, loaded_system):
        for low, high in ((100.0, 300.0), (42.0, 58.0), (0.0, 1000.0)):
            result = loaded_system.range_query(low, high)
            expected = sorted(float(v) for v in range(0, 1000, 5) if low <= v <= high)
            assert sorted(result.matching_values()) == expected

    def test_point_query(self, loaded_system):
        result = loaded_system.range_query(250.0, 250.0)
        assert result.matching_values() == [250.0]
        assert result.destination_count >= 1

    def test_empty_range_far_from_data_returns_nothing(self):
        system = ArmadaSystem(num_peers=64, seed=2, attribute_interval=(0.0, 1000.0))
        system.insert_many([1.0, 2.0, 3.0])
        result = system.range_query(900.0, 950.0)
        assert result.matches == []
        assert result.destination_count >= 1  # peers are still responsible for the range

    def test_origin_counts_as_destination_when_it_owns_the_range(self):
        system = ArmadaSystem(num_peers=32, seed=4, attribute_interval=(0.0, 1000.0))
        system.insert_many([float(v) for v in range(0, 1000, 10)])
        # Pick an origin and query a tiny range it owns itself.
        origin = system.network.peer_ids()[0]
        interval = system.single_namer.prefix_interval(origin)
        midpoint = (interval.low + interval.high) / 2
        result = system.range_query(midpoint, midpoint, origin=origin)
        assert origin in result.destinations
        assert result.destinations[origin] == 0


class TestPiraBounds:
    def test_delay_below_frt_height(self, loaded_system):
        rng = DeterministicRNG(77)
        for _ in range(40):
            origin = loaded_system.network.random_peer(rng).peer_id
            low = rng.uniform(0.0, 900.0)
            result = loaded_system.range_query(low, low + rng.uniform(0.0, 100.0), origin=origin)
            assert result.delay_hops <= len(origin)

    def test_delay_bounded_by_two_log_n(self, loaded_system):
        bound = 2 * math.log2(loaded_system.size) + 1
        rng = DeterministicRNG(78)
        for _ in range(40):
            low = rng.uniform(0.0, 700.0)
            result = loaded_system.range_query(low, low + 300.0)
            assert result.delay_hops <= bound

    def test_average_delay_below_log_n(self, loaded_system):
        rng = DeterministicRNG(79)
        delays = []
        for _ in range(60):
            low = rng.uniform(0.0, 950.0)
            delays.append(loaded_system.range_query(low, low + 50.0).delay_hops)
        assert sum(delays) / len(delays) < math.log2(loaded_system.size)

    def test_message_cost_close_to_analysis(self, loaded_system):
        # Section 4.3.2: average message cost about logN + 2n - 2.
        rng = DeterministicRNG(80)
        total_messages = 0
        total_predicted = 0.0
        samples = 60
        for _ in range(samples):
            low = rng.uniform(0.0, 900.0)
            result = loaded_system.range_query(low, low + 100.0)
            total_messages += result.messages
            total_predicted += math.log2(loaded_system.size) + 2 * result.destination_count - 2
        ratio = total_messages / total_predicted
        assert 0.7 < ratio < 1.3

    def test_delay_independent_of_range_size(self, loaded_system):
        rng = DeterministicRNG(81)
        small, large = [], []
        for _ in range(30):
            low = rng.uniform(0.0, 600.0)
            small.append(loaded_system.range_query(low, low + 2.0).delay_hops)
            large.append(loaded_system.range_query(low, low + 300.0).delay_hops)
        # Delay-boundedness: growing the range 150x changes the average delay
        # by at most ~2 hops.
        assert abs(sum(large) / len(large) - sum(small) / len(small)) < 2.0


class TestPiraValidation:
    def test_inverted_range_raises(self, loaded_system):
        with pytest.raises(QueryError):
            loaded_system.range_query(200.0, 100.0)

    def test_unknown_origin_raises(self, loaded_system):
        with pytest.raises(QueryError):
            loaded_system.pira.execute("0000", [(1.0, 2.0)])

    def test_forwarding_steps_follow_out_neighbor_edges(self, loaded_system):
        result = loaded_system.range_query(400.0, 450.0)
        for sender, receiver, _hop in result.forwarding_steps:
            assert receiver in loaded_system.network.out_neighbors(sender)

    def test_message_count_equals_forwarding_steps(self, loaded_system):
        result = loaded_system.range_query(100.0, 140.0)
        assert result.messages == len(result.forwarding_steps)

    def test_query_ids_are_unique(self, loaded_system):
        first = loaded_system.range_query(10.0, 20.0)
        second = loaded_system.range_query(10.0, 20.0)
        assert first.query_id != second.query_id


class TestStandaloneExecutor:
    def test_executor_builds_own_overlay(self):
        network = FissioneNetwork.build(
            48, DeterministicRNG(5).substream("topology"), object_id_length=20
        )
        namer = SingleAttributeNamer(low=0.0, high=10.0, length=20)
        executor = PiraExecutor(network, namer, OverlayNetwork())
        for value in range(10):
            network.publish(namer.name(float(value)), key=float(value), value=value)
        origin = network.peer_ids()[0]
        result = executor.execute(origin, [(2.0, 7.0)])
        assert sorted(result.matching_values()) == [2.0, 3.0, 4.0, 5.0, 6.0, 7.0]
        assert set(result.destinations) == executor.ground_truth_destinations([(2.0, 7.0)])


class TestMatchOrder:
    def test_each_destination_reports_its_matches_in_key_order(self):
        """A destination's batch is a slice of its key-sorted run; the
        batches, in arrival order, are the query's matches."""
        network = FissioneNetwork.build(
            48, DeterministicRNG(6).substream("topology"), object_id_length=20
        )
        namer = SingleAttributeNamer(low=0.0, high=100.0, length=20)
        overlay = OverlayNetwork()
        executor = PiraExecutor(network, namer, overlay)
        rng = DeterministicRNG(6).substream("values")
        # published out of key order, with repeats (int and float spellings)
        for index in range(400):
            value = round(rng.uniform(0.0, 100.0), 0)
            key = int(value) if index % 3 == 0 else value
            network.publish(namer.name(float(value)), key=key, value=index)
        scan = executor._scan
        batches = []

        def recording_scan(peer, branch, state):
            found = scan(peer, branch, state)
            batches.append(list(found))
            return found

        executor._scan = recording_scan
        origin = network.peer_ids()[0]
        for low, high in ((0.0, 100.0), (12.5, 61.0), (40.0, 40.0)):
            batches.clear()
            result = executor.start(origin, [(low, high)])
            overlay.run()
            assert len(batches) == result.destination_count
            for batch in batches:
                keys = [stored.key for stored in batch]
                assert keys == sorted(keys)
            assert [stored for batch in batches for stored in batch] == list(result.matches)
            assert sorted(result.matching_values()) == sorted(
                stored.key
                for peer in network.peers()
                for stored in peer.objects()
                if low <= stored.key <= high
            )
        assert len(batches[0]) > 1  # the last query's one batch held repeats
