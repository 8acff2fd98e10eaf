"""Unit tests for the partition tree P(2, k) and Interval helpers."""

from __future__ import annotations

import pytest

from repro.core.errors import NamingError
from repro.core.partition_tree import Interval, PartitionTree

from oracles import children_labels, leaf_labels


class TestInterval:
    def test_width_and_contains(self):
        interval = Interval(2.0, 6.0)
        assert interval.width == 4.0
        assert interval.contains(2.0)
        assert interval.contains(6.0)
        assert interval.contains(4.0)
        assert not interval.contains(6.1)

    def test_invalid_interval_raises(self):
        with pytest.raises(NamingError):
            Interval(5.0, 4.0)

    def test_intersects(self):
        assert Interval(0, 2).intersects(Interval(2, 3))
        assert Interval(0, 2).intersects(Interval(1, 5))
        assert not Interval(0, 2).intersects(Interval(2.1, 3))

    def test_subdivide_even_pieces(self):
        pieces = Interval(0.0, 1.0).subdivide(4)
        assert len(pieces) == 4
        assert pieces[0].low == 0.0
        assert pieces[-1].high == 1.0
        for first, second in zip(pieces, pieces[1:]):
            assert first.high == pytest.approx(second.low)
        assert all(piece.width == pytest.approx(0.25) for piece in pieces)

    def test_subdivide_invalid(self):
        with pytest.raises(NamingError):
            Interval(0, 1).subdivide(0)

    def test_clamp(self):
        interval = Interval(0.0, 10.0)
        assert interval.clamp(-1.0) == 0.0
        assert interval.clamp(11.0) == 10.0
        assert interval.clamp(5.0) == 5.0


class TestPartitionTreeStructure:
    def test_root_has_three_children_others_two(self):
        tree = PartitionTree(0.0, 1.0, depth=4)
        assert children_labels(tree, "") == ["0", "1", "2"]
        assert children_labels(tree, "0") == ["01", "02"]
        assert children_labels(tree, "01") == ["010", "012"]

    def test_leaves_are_kautz_space_in_order(self):
        tree = PartitionTree(0.0, 1.0, depth=3)
        leaves = leaf_labels(tree)
        assert len(leaves) == 12
        assert leaves == sorted(leaves)

    def test_children_of_leaf_are_empty(self):
        tree = PartitionTree(0.0, 1.0, depth=3)
        assert children_labels(tree, "010") == []

    def test_invalid_parameters(self):
        with pytest.raises(NamingError):
            PartitionTree(0.0, 1.0, depth=0)
        with pytest.raises(NamingError):
            PartitionTree(1.0, 1.0, depth=3)


class TestIntervalForLabel:
    def test_paper_figure3_node_u(self):
        # Figure 3: node U with label 0101 represents [0, 1/24].
        tree = PartitionTree(0.0, 1.0, depth=4)
        interval = tree.interval_for_label("0101")
        assert interval.low == pytest.approx(0.0)
        assert interval.high == pytest.approx(1.0 / 24.0)

    def test_root_children_split_evenly(self):
        tree = PartitionTree(0.0, 1.0, depth=4)
        assert tree.interval_for_label("0").high == pytest.approx(1.0 / 3.0)
        assert tree.interval_for_label("1").low == pytest.approx(1.0 / 3.0)
        assert tree.interval_for_label("2").high == pytest.approx(1.0)

    def test_siblings_tile_parent(self):
        tree = PartitionTree(0.0, 1.0, depth=4)
        parent = tree.interval_for_label("02")
        children = [tree.interval_for_label(child) for child in children_labels(tree, "02")]
        assert children[0].low == pytest.approx(parent.low)
        assert children[-1].high == pytest.approx(parent.high)
        assert children[0].high == pytest.approx(children[1].low)

    def test_leaves_tile_whole_interval(self):
        tree = PartitionTree(0.0, 1.0, depth=4)
        leaves = leaf_labels(tree)
        intervals = [tree.interval_for_label(leaf) for leaf in leaves]
        assert intervals[0].low == pytest.approx(0.0)
        assert intervals[-1].high == pytest.approx(1.0)
        for first, second in zip(intervals, intervals[1:]):
            assert first.high == pytest.approx(second.low)

    def test_too_deep_label_raises(self):
        tree = PartitionTree(0.0, 1.0, depth=3)
        with pytest.raises(NamingError):
            tree.interval_for_label("0101")


class TestLabelForValue:
    def test_paper_example_value_01(self):
        # Figure 3: value 0.1 belongs to leaf P with label 0120.
        tree = PartitionTree(0.0, 1.0, depth=4)
        assert tree.label_for_value(0.1) == "0120"

    def test_endpoints(self):
        tree = PartitionTree(0.0, 1.0, depth=4)
        assert tree.label_for_value(0.0) == "0101"
        assert tree.label_for_value(1.0) == "2121"

    def test_value_outside_interval_raises(self):
        tree = PartitionTree(0.0, 1.0, depth=4)
        with pytest.raises(NamingError):
            tree.label_for_value(1.5)

    def test_label_matches_interval(self):
        tree = PartitionTree(0.0, 1000.0, depth=6)
        for value in (0.0, 1.7, 333.3, 500.0, 999.9, 1000.0):
            label = tree.label_for_value(value)
            assert tree.interval_for_label(label).contains(value)

    def test_partial_depth_label(self):
        tree = PartitionTree(0.0, 1.0, depth=6)
        full = tree.label_for_value(0.4)
        partial = tree.label_for_value(0.4, depth=3)
        assert full.startswith(partial)
        assert len(partial) == 3

    def test_requested_depth_beyond_tree_raises(self):
        tree = PartitionTree(0.0, 1.0, depth=3)
        with pytest.raises(NamingError):
            tree.label_for_value(0.4, depth=5)

    def test_monotone_in_value(self):
        tree = PartitionTree(0.0, 1.0, depth=6)
        values = [index / 200 for index in range(201)]
        labels = [tree.label_for_value(value) for value in values]
        assert labels == sorted(labels)

    def test_deep_tree_does_not_crash(self):
        # Depths beyond float resolution must still produce valid labels.
        tree = PartitionTree(0.0, 1.0, depth=80)
        label = tree.label_for_value(0.123456)
        assert len(label) == 80
