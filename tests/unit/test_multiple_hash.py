"""Unit tests for Multiple_hash, boxes and the multi-attribute namer."""

from __future__ import annotations

import pytest

from repro.core.errors import NamingError, QueryError
from repro.core.multiple_hash import Box, MultiAttributeNamer, multiple_hash
from repro.core.partition_tree import Interval
from repro.kautz import strings as ks


class TestBox:
    def test_contains_point(self):
        box = Box([Interval(0, 10), Interval(0, 5)])
        assert box.contains((3, 4))
        assert box.contains((0, 0))
        assert not box.contains((11, 1))
        assert not box.contains((3, 6))

    def test_contains_wrong_dimensionality_raises(self):
        box = Box([Interval(0, 10)])
        with pytest.raises(NamingError):
            box.contains((1, 2))

    def test_intersects(self):
        first = Box([Interval(0, 10), Interval(0, 10)])
        second = Box([Interval(5, 15), Interval(9, 20)])
        third = Box([Interval(11, 15), Interval(0, 10)])
        assert first.intersects(second)
        assert not first.intersects(third)

    def test_intersects_dimension_mismatch_raises(self):
        with pytest.raises(NamingError):
            Box([Interval(0, 1)]).intersects(Box([Interval(0, 1), Interval(0, 1)]))

    def test_empty_box_rejected(self):
        with pytest.raises(NamingError):
            Box([])


class TestMultipleHash:
    def setup_method(self):
        self.intervals = ((0.0, 100.0), (0.0, 10.0))
        self.namer = MultiAttributeNamer(intervals=self.intervals, length=10)

    def test_function_and_namer_agree(self):
        values = (30.0, 7.0)
        assert multiple_hash(values, self.intervals, 10) == self.namer.name(values)

    def test_output_valid_kautz_string(self):
        object_id = self.namer.name((55.0, 5.5))
        assert len(object_id) == 10
        assert ks.is_kautz_string(object_id, base=2)

    def test_wrong_dimensionality_raises(self):
        with pytest.raises(NamingError):
            self.namer.name((1.0,))

    def test_value_outside_space_raises(self):
        with pytest.raises(NamingError):
            self.namer.name((200.0, 5.0))

    def test_box_for_label_contains_named_value(self):
        values = (42.0, 3.3)
        object_id = self.namer.name(values)
        assert self.namer.box_for_label(object_id).contains(values)
        assert self.namer.box_for_label(object_id[:4]).contains(values)

    def test_box_for_root_is_whole_space(self):
        box = self.namer.box_for_label("")
        assert box.intervals[0].low == 0.0
        assert box.intervals[0].high == 100.0
        assert box.intervals[1].high == 10.0

    def test_partial_order_preserving(self):
        """Definition 4: v1 <= v2 (coordinate-wise) implies F(v1) <= F(v2)."""
        pairs = [
            ((10.0, 1.0), (20.0, 2.0)),
            ((0.0, 0.0), (100.0, 10.0)),
            ((33.0, 4.0), (33.0, 9.0)),
            ((5.0, 9.0), (80.0, 9.0)),
        ]
        for smaller, larger in pairs:
            assert self.namer.name(smaller) <= self.namer.name(larger)

    def test_round_robin_splitting(self):
        # Level 0 splits attribute 0, level 1 splits attribute 1: after two
        # symbols the first attribute has been split once (into thirds) and
        # the second once (into halves).
        box = self.namer.box_for_label("01")
        assert box.intervals[0].width == pytest.approx(100.0 / 3.0)
        assert box.intervals[1].width == pytest.approx(5.0)

    def test_invalid_construction(self):
        with pytest.raises(NamingError):
            MultiAttributeNamer(intervals=[], length=8)
        with pytest.raises(NamingError):
            MultiAttributeNamer(intervals=[(0.0, 0.0)], length=8)
        with pytest.raises(NamingError):
            MultiAttributeNamer(intervals=[(0.0, 1.0)], length=0)


class TestQueries:
    def setup_method(self):
        self.namer = MultiAttributeNamer(intervals=((0.0, 100.0), (0.0, 100.0)), length=12)

    def test_query_box_validation(self):
        with pytest.raises(QueryError):
            self.namer.query_box([(0.0, 10.0)])
        with pytest.raises(QueryError):
            self.namer.query_box([(10.0, 0.0), (0.0, 10.0)])

    def test_query_box_clamps(self):
        box = self.namer.query_box([(-10.0, 50.0), (90.0, 200.0)])
        assert box.intervals[0].low == 0.0
        assert box.intervals[1].high == 100.0

    def test_corner_ids_ordered(self):
        low_id, high_id = self.namer.corner_ids([(10.0, 40.0), (20.0, 60.0)])
        assert low_id <= high_id

    def test_matches(self):
        ranges = [(10.0, 40.0), (20.0, 60.0)]
        assert self.namer.matches((15.0, 30.0), ranges)
        assert not self.namer.matches((45.0, 30.0), ranges)

    def test_label_intersects_query(self):
        ranges = [(10.0, 40.0), (20.0, 60.0)]
        matching_label = self.namer.name((20.0, 30.0))[:6]
        assert self.namer.label_intersects_query(matching_label, ranges)
        far_label = self.namer.name((99.0, 99.0))
        assert not self.namer.label_intersects_query(far_label, ranges)
