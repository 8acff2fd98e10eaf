"""Unit tests for MIRA multi-attribute range-query processing."""

from __future__ import annotations

import math

import pytest

from repro.core.armada import ArmadaSystem
from repro.core.errors import ArmadaError, QueryError
from repro.core.frt import descendant_prefix
from repro.core.mira import MiraExecutor, _MiraQuery
from repro.core.multiple_hash import Box, MultiAttributeNamer
from repro.core.pira import RangeQueryResult
from repro.core.resumable import QueryState
from repro.core.partition_tree import Interval
from repro.faults import CrashStop, FaultInjector, ResiliencePolicy
from repro.sim.rng import DeterministicRNG


def expected_matches(records, ranges):
    return sorted(
        record
        for record in records
        if all(low <= value <= high for value, (low, high) in zip(record, ranges))
    )


class TestMiraExactness:
    def test_returns_exactly_matching_records(self, multi_system):
        records = multi_system.multi_records
        for ranges in (
            [(10.0, 30.0), (40.0, 70.0)],
            [(0.0, 100.0), (0.0, 100.0)],
            [(95.0, 100.0), (0.0, 5.0)],
            [(50.0, 50.5), (50.0, 50.5)],
        ):
            result = multi_system.multi_range_query(ranges)
            got = sorted(tuple(stored.key) for stored in result.matches)
            assert got == expected_matches(records, ranges)

    def test_destinations_superset_of_match_owners(self, multi_system):
        ranges = [(20.0, 40.0), (20.0, 40.0)]
        result = multi_system.multi_range_query(ranges)
        owners = {
            multi_system.network.owner_id(multi_system.multi_namer.name(stored.key))
            for stored in result.matches
        }
        assert owners <= set(result.destinations)

    def test_destinations_match_oracle(self, multi_system):
        ranges = [(10.0, 35.0), (60.0, 90.0)]
        result = multi_system.multi_range_query(ranges)
        oracle = multi_system.mira.ground_truth_destinations(ranges)
        assert set(result.destinations) == oracle


class TestMiraBounds:
    def test_delay_bounded_by_origin_id_length(self, multi_system):
        rng = DeterministicRNG(55)
        for _ in range(25):
            origin = multi_system.network.random_peer(rng).peer_id
            low0 = rng.uniform(0.0, 60.0)
            low1 = rng.uniform(0.0, 60.0)
            result = multi_system.multi_range_query(
                [(low0, low0 + 40.0), (low1, low1 + 40.0)], origin=origin
            )
            assert result.delay_hops <= len(origin)

    def test_delay_bounded_by_two_log_n_even_for_huge_boxes(self, multi_system):
        bound = 2 * math.log2(multi_system.size) + 1
        result = multi_system.multi_range_query([(0.0, 100.0), (0.0, 100.0)])
        assert result.delay_hops <= bound

    def test_average_delay_below_log_n(self, multi_system):
        rng = DeterministicRNG(56)
        delays = []
        for _ in range(30):
            low0 = rng.uniform(0.0, 80.0)
            low1 = rng.uniform(0.0, 80.0)
            delays.append(
                multi_system.multi_range_query(
                    [(low0, low0 + 20.0), (low1, low1 + 20.0)]
                ).delay_hops
            )
        assert sum(delays) / len(delays) < math.log2(multi_system.size)


class TestMiraValidation:
    def test_unknown_origin_raises(self, multi_system):
        with pytest.raises(QueryError):
            multi_system.mira.execute("0000", [(0.0, 1.0), (0.0, 1.0)])

    def test_wrong_dimension_count_raises(self, multi_system):
        with pytest.raises(QueryError):
            multi_system.multi_range_query([(0.0, 1.0)])

    def test_inverted_range_raises(self, multi_system):
        with pytest.raises(QueryError):
            multi_system.multi_range_query([(10.0, 5.0), (0.0, 1.0)])

    def test_system_without_multi_config_raises(self):
        system = ArmadaSystem(num_peers=16, seed=1)
        with pytest.raises(ArmadaError):
            system.multi_range_query([(0.0, 1.0)])
        with pytest.raises(ArmadaError):
            system.insert_multi((1.0, 2.0))

    def test_forwarding_steps_follow_edges(self, multi_system):
        result = multi_system.multi_range_query([(30.0, 50.0), (30.0, 50.0)])
        for sender, receiver, _hop in result.forwarding_steps:
            assert receiver in multi_system.network.out_neighbors(sender)

    def test_single_attribute_objects_ignored_by_multi_query(self):
        system = ArmadaSystem(
            num_peers=32,
            seed=7,
            attribute_interval=(0.0, 100.0),
            attribute_intervals=((0.0, 100.0), (0.0, 100.0)),
        )
        system.insert(50.0, payload="single")
        system.insert_multi((50.0, 50.0), payload="multi")
        result = system.multi_range_query([(0.0, 100.0), (0.0, 100.0)])
        assert [stored.value for stored in result.matches] == ["multi"]


class BoxMira(MiraExecutor):
    """MIRA before the carried walk: each neighbour's label is rebuilt with
    ``descendant_prefix`` and resolved from the root through ``box_for_label``,
    and a destination filters the copied ``peer.objects()`` list."""

    def _intersects(self, subtree, label):
        if label == "":
            return True
        query_box = Box([Interval(low, high) for low, high in zip(subtree.lows, subtree.highs)])
        return self.namer.box_for_label(label[: self.namer.length]).intersects(query_box)

    def _process(self, peer, level, hop, branch_index, state, region=None):
        subtree = state.branches[branch_index]
        for neighbor_id in self._out_view(peer.peer_id):
            prefix = descendant_prefix(neighbor_id, level + 1, subtree.dest_level)
            if self._intersects(subtree, prefix):
                self._forward_message(
                    peer.peer_id, neighbor_id, level + 1, hop + 1, branch_index, state
                )

    def _scan(self, peer, subtree, state):
        ranges = tuple(zip(subtree.key_lows, subtree.key_highs))
        return [
            stored
            for stored in peer.objects()
            if isinstance(stored.key, (tuple, list))
            and len(stored.key) == self.namer.dimensions
            and all(low <= value <= high for value, (low, high) in zip(stored.key, ranges))
        ]


WALK_SPACES = {
    2: ((0.0, 100.0), (0.0, 100.0)),
    3: ((-5.0, 5.0), (0.0, 1.0), (10.0, 1000.0)),
}


def walk_system(dimensions: int) -> ArmadaSystem:
    """256 peers holding 800 objects of ``dimensions`` attributes plus a few
    single-attribute ones (a MIRA destination must skip those)."""
    system = ArmadaSystem(
        num_peers=256,
        seed=41,
        attribute_interval=(0.0, 100.0),
        attribute_intervals=WALK_SPACES[dimensions],
    )
    rng = DeterministicRNG(41).substream("walk-values")
    for _ in range(800):
        system.insert_multi(tuple(rng.uniform(low, high) for low, high in WALK_SPACES[dimensions]))
    for value in (0.0, 12.5, 50.0, 99.0):
        system.insert(value)
    return system


def walk_boxes(dimensions: int, count: int = 60):
    """``count`` query boxes: mostly random widths, plus points, slivers
    on the first partition boundaries and the whole space."""
    rng = DeterministicRNG(43).substream(f"walk-boxes-{dimensions}")
    space = WALK_SPACES[dimensions]
    boxes = [
        [(low, high) for low, high in space],
        [(low, low) for low, _high in space],
        [(low + (high - low) / 3, low + (high - low) / 3) for low, high in space],
        [(low + (high - low) / 3, low + (high - low) * 2 / 3) for low, high in space],
    ]
    while len(boxes) < count:
        box = []
        for low, high in space:
            width = (high - low) * rng.choice([0.0, 0.01, 0.05, 0.2, 0.6])
            start = rng.uniform(low - width / 2, high)
            box.append((start, start + width))
        boxes.append(box)
    return boxes


class TestCarriedWalkSendSequence:
    """The carried walk prunes exactly as resolving every label from the
    root did: the same sends in the same order, the same destinations and
    the same matches in the same order."""

    @staticmethod
    def run_both(system, boxes, origins):
        reference = BoxMira(system.network, system.multi_namer, system.overlay)
        reference.set_resilience(system.mira.resilience)
        pairs = []
        for ranges, origin in zip(boxes, origins):
            walked = system.mira.execute(origin, ranges)
            rebuilt = reference.execute(origin, ranges)
            assert walked.messages == rebuilt.messages
            assert walked.forwarding_steps == rebuilt.forwarding_steps
            assert walked.destinations == rebuilt.destinations
            assert walked.matches == rebuilt.matches
            assert walked.resilience.as_dict() == rebuilt.resilience.as_dict()
            pairs.append(walked)
        return pairs

    @pytest.mark.parametrize("dimensions", sorted(WALK_SPACES))
    def test_sends_equal_the_box_for_label_descent(self, dimensions):
        system = walk_system(dimensions)
        rng = DeterministicRNG(44)
        origins = [system.network.random_peer(rng).peer_id for _ in range(60)]
        results = self.run_both(system, walk_boxes(dimensions), origins)
        assert sum(result.messages for result in results) > 0
        assert sum(len(result.matches) for result in results) > 0

    @pytest.mark.parametrize("dimensions", sorted(WALK_SPACES))
    def test_detours_around_crashed_peers_equal_too(self, dimensions):
        """Crashed relays time out, and the sender's reroute filters the
        detour targets through ``_intersects``."""
        system = walk_system(dimensions)
        rng = DeterministicRNG(45)
        peer_ids = system.network.peer_ids()
        victims = sorted(rng.sample(peer_ids, 26))
        origins = [
            peer_id for peer_id in (system.network.random_peer(rng).peer_id for _ in range(200))
            if peer_id not in victims
        ][:60]
        system.set_resilience(ResiliencePolicy(per_hop_timeout=2.0, max_retries=1, reroute=True))
        FaultInjector(system.overlay, [CrashStop(peer_ids=victims, at=0.0)], seed=1).install()
        system.overlay.run(until=0.0)
        results = self.run_both(system, walk_boxes(dimensions), origins)
        assert sum(result.resilience.reroutes for result in results) > 0
        assert sum(result.resilience.recovered_destinations for result in results) > 0


def recorder(sends):
    """A stand-in for ``_forward_message`` that logs each send it is asked for."""

    def forward(sender, receiver, level, hop, branch_index, state, region=None):
        sends.append((sender, receiver, level, region))

    return forward


class TestMiraInlinePruning:
    """``MiraExecutor._process`` and ``_intersects`` against the reference
    over arbitrary labels — every seventh PeerID as a neighbour, not only
    the Kautz shift's, so most labels do not extend the relay's own and are
    walked from the root — and over trees shallower than the PeerIDs, so
    labels are cut to the tree depth.  Each kept neighbour's send carries
    the walk of its label from the root."""

    @pytest.mark.parametrize("length", [3, 5, 32])
    def test_forwarded_neighbours_and_their_regions(self, multi_system, length):
        network = multi_system.network
        namer = MultiAttributeNamer(((0.0, 100.0), (0.0, 100.0)), length=length)
        neighbours = network.peer_ids()[::7]
        executors = {}
        for cls in (MiraExecutor, BoxMira):
            executor = executors[cls] = cls(network, namer, multi_system.overlay)
            executor._out_view = lambda peer_id: neighbours
            executor.sends = []
            executor._forward_message = recorder(executor.sends)
        walked, rebuilt = executors[MiraExecutor], executors[BoxMira]
        for ranges in ([(10.0, 35.0), (60.0, 90.0)], [(50.0, 50.0), (0.0, 100.0)]):
            lows, highs = namer.query_box(ranges).bounds()
            state = QueryState(result=RangeQueryResult(origin="", query_id=0))
            state.branches.append(_MiraQuery(lows, highs, lows, highs, 6))
            for label in network.peer_ids():
                assert walked._intersects(state.branches[0], label) == rebuilt._intersects(
                    state.branches[0], label
                )
            for peer in list(network.peers())[::3]:
                for level in range(6):
                    own = namer.walk(descendant_prefix(peer.peer_id, level, 6)[:length])
                    for region in (None, own):
                        walked._process(peer, level, 0, 0, state, region)
                        rebuilt._process(peer, level, 0, 0, state)
        assert [send[:3] for send in walked.sends] == [send[:3] for send in rebuilt.sends]
        assert walked.sends
        for _sender, receiver, level, region in walked.sends:
            assert region == namer.walk(descendant_prefix(receiver, level, 6)[:length])
