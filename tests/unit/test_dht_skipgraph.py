"""Unit tests for the Skip Graph substrate."""

from __future__ import annotations

import math

import pytest

from repro.dhts.skipgraph import SkipGraph
from repro.sim.rng import DeterministicRNG

from oracles import key_order, range_nodes


@pytest.fixture(scope="module")
def skipgraph() -> SkipGraph:
    rng = DeterministicRNG(29)
    keys = [rng.uniform(0.0, 1000.0) for _ in range(180)]
    return SkipGraph(keys, rng.substream("membership"))


class TestConstruction:
    def test_size(self, skipgraph):
        assert skipgraph.size == 180

    def test_requires_two_keys(self):
        with pytest.raises(ValueError):
            SkipGraph([1.0], DeterministicRNG(1))

    def test_level_zero_is_sorted_doubly_linked_list(self, skipgraph):
        order = key_order(skipgraph)
        for left_id, right_id in zip(order, order[1:]):
            left, right = skipgraph.node(left_id), skipgraph.node(right_id)
            assert left.key <= right.key
            assert left.links[0][1] == right_id
            assert right.links[0][0] == left_id

    def test_higher_levels_link_within_membership_groups(self, skipgraph):
        for node_id in key_order(skipgraph)[:50]:
            node = skipgraph.node(node_id)
            for level in range(1, min(4, node.levels)):
                _left, right = node.links[level]
                if right is not None:
                    other = skipgraph.node(right)
                    assert other.membership[:level] == node.membership[:level]
                    assert other.key >= node.key

    def test_level_lists_thin_out(self, skipgraph):
        def linked_count(level):
            return sum(
                1
                for node_id in key_order(skipgraph)
                if any(link is not None for link in skipgraph.node(node_id).links[level])
            )

        assert linked_count(3) <= linked_count(0)


class TestOwnership:
    def test_owner_is_greatest_key_at_most_value(self, skipgraph):
        order = key_order(skipgraph)
        keys = [skipgraph.node(node_id).key for node_id in order]
        probe = (keys[50] + keys[51]) / 2
        assert skipgraph.owner(probe) == order[50]

    def test_owner_below_smallest_key(self, skipgraph):
        order = key_order(skipgraph)
        smallest = skipgraph.node(order[0]).key
        assert skipgraph.owner(smallest - 1.0) == order[0]


class TestSearch:
    def test_route_reaches_owner(self, skipgraph):
        rng = DeterministicRNG(30)
        for _ in range(60):
            source = skipgraph.random_node(rng)
            key = skipgraph.random_key(rng)
            result = skipgraph.route(source, key)
            assert result.owner == skipgraph.owner(key)

    def test_route_hops_logarithmic(self, skipgraph):
        rng = DeterministicRNG(31)
        hops = [
            skipgraph.route(skipgraph.random_node(rng), skipgraph.random_key(rng)).hops
            for _ in range(80)
        ]
        assert sum(hops) / len(hops) <= 3 * math.log2(skipgraph.size)

    def test_route_to_own_key(self, skipgraph):
        node_id = key_order(skipgraph)[10]
        key = skipgraph.node(node_id).key
        assert skipgraph.route(node_id, key).owner == node_id


class TestScans:
    def test_scan_right_collects_contiguous_nodes(self, skipgraph):
        order = key_order(skipgraph)
        start = order[40]
        high_key = skipgraph.node(order[45]).key
        walk = skipgraph.scan_right(start, high_key)
        assert walk == order[40:46]

    def test_scan_right_stops_at_end(self, skipgraph):
        order = key_order(skipgraph)
        walk = skipgraph.scan_right(order[-3], float("inf"))
        assert walk == order[-3:]

    def test_range_nodes_oracle_matches_scan(self, skipgraph):
        order = key_order(skipgraph)
        low_key = skipgraph.node(order[30]).key
        high_key = skipgraph.node(order[37]).key
        oracle = range_nodes(skipgraph, low_key, high_key)
        start = skipgraph.owner(low_key)
        walk = skipgraph.scan_right(start, high_key)
        assert set(walk) == set(oracle)
