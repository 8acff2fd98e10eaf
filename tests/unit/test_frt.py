"""Unit tests for the forward routing tree and its level arithmetic."""

from __future__ import annotations

import pytest

from repro.core.errors import QueryError
from repro.core.frt import (
    ForwardRoutingTree,
    descendant_prefix,
    destination_level,
    longest_suffix_prefix,
)
from repro.kautz.region import KautzRegion

from oracles import level_peers


class TestLongestSuffixPrefix:
    def test_basic_overlap(self):
        assert longest_suffix_prefix("0212021", "0") == ""
        assert longest_suffix_prefix("2101", "0120") == "01"
        assert longest_suffix_prefix("0102", "0212") == "02"

    def test_full_peer_id_is_prefix_of_target(self):
        assert longest_suffix_prefix("012", "01201") == "012"

    def test_no_overlap(self):
        assert longest_suffix_prefix("010", "212") == ""

    def test_empty_target(self):
        assert longest_suffix_prefix("010", "") == ""


class TestDestinationLevel:
    def test_level_is_b_minus_f(self):
        region = KautzRegion("012010", "012021")  # ComT = "0120"
        assert destination_level("210120", region) == 6 - 4
        assert destination_level("2101", region) == 4 - 2
        assert destination_level("2121", region) == 4 - 0

    def test_origin_owning_whole_region(self):
        region = KautzRegion("012010", "012021")
        # PeerID "0120" is itself a prefix of ComT: every destination is the origin.
        assert destination_level("0120", region) == 0

    def test_empty_peer_id_raises(self):
        with pytest.raises(QueryError):
            destination_level("", KautzRegion("010", "012"))


class TestDescendantPrefix:
    def test_drops_leading_symbols(self):
        assert descendant_prefix("012021", 2, 5) == "021"
        assert descendant_prefix("012021", 4, 5) == "12021"
        assert descendant_prefix("012021", 5, 5) == "012021"

    def test_short_peer_id_gives_empty_prefix(self):
        assert descendant_prefix("01", 0, 5) == ""

    def test_level_beyond_destination_raises(self):
        with pytest.raises(QueryError):
            descendant_prefix("012", 6, 5)


class TestForwardRoutingTree:
    def test_figure4_style_structure(self, small_network):
        root_id = small_network.peer_ids()[0]
        frt = ForwardRoutingTree(small_network, root_id)
        assert frt.height == len(root_id)
        tree = frt.build(max_level=2)
        assert tree.peer_id == root_id
        assert tree.level == 0
        # Children are exactly the out-neighbours, sorted.
        child_ids = [child.peer_id for child in tree.children]
        assert child_ids == sorted(small_network.out_neighbors(root_id))

    def test_level_peers_share_suffix_prefix(self, small_network):
        root_id = max(small_network.peer_ids(), key=len)
        frt = ForwardRoutingTree(small_network, root_id)
        for level in range(1, frt.height):
            suffix = root_id[level:]
            for peer_id in level_peers(small_network, root_id, level):
                assert peer_id.startswith(suffix) or suffix.startswith(peer_id)

    def test_level_zero_is_root(self, small_network):
        root_id = small_network.peer_ids()[3]
        assert level_peers(small_network, root_id, 0) == [root_id]

    def test_last_level_excludes_last_symbol_prefix(self, small_network):
        root_id = small_network.peer_ids()[3]
        frt = ForwardRoutingTree(small_network, root_id)
        last = root_id[-1]
        for peer_id in level_peers(small_network, root_id, frt.height):
            assert not peer_id.startswith(last)

    def test_level_out_of_bounds_raises(self, small_network):
        root_id = small_network.peer_ids()[0]
        frt = ForwardRoutingTree(small_network, root_id)
        with pytest.raises(QueryError):
            level_peers(small_network, root_id, -1)
        with pytest.raises(QueryError):
            level_peers(small_network, root_id, frt.height + 1)

    def test_children_in_tree_are_out_neighbors(self, small_network):
        root_id = small_network.peer_ids()[10]
        frt = ForwardRoutingTree(small_network, root_id)
        tree = frt.build(max_level=3)
        stack = [tree]
        while stack:
            node = stack.pop()
            for child in node.children:
                assert child.peer_id in small_network.out_neighbors(node.peer_id)
                assert child.level == node.level + 1
                stack.append(child)

    def test_descendants_enumeration(self, small_network):
        root_id = small_network.peer_ids()[0]
        tree = ForwardRoutingTree(small_network, root_id).build(max_level=2)
        descendants = tree.descendants()
        assert len(descendants) == sum(1 for _ in _walk(tree)) - 1

    def test_render_contains_root_and_indentation(self, small_network):
        root_id = small_network.peer_ids()[0]
        text = ForwardRoutingTree(small_network, root_id).render(max_level=1)
        lines = text.splitlines()
        assert lines[0] == root_id
        assert all(line.startswith("  ") for line in lines[1:])

    def test_unknown_root_raises(self, small_network):
        with pytest.raises(QueryError):
            ForwardRoutingTree(small_network, "0000")


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)
