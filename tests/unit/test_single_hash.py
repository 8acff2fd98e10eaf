"""Unit tests for Single_hash and the single-attribute namer."""

from __future__ import annotations

import pytest

from repro.core.errors import QueryError
from repro.core.single_hash import SingleAttributeNamer, single_hash
from repro.kautz import strings as ks


class TestSingleHashFunction:
    def test_paper_worked_examples(self):
        # Section 4.1: value 0.1 -> 0120; range [0.1, 0.24] -> <0120, 0202>.
        assert single_hash(0.1, 0.0, 1.0, 4) == "0120"
        assert single_hash(0.24, 0.0, 1.0, 4) == "0202"

    def test_output_is_valid_kautz_string_of_requested_length(self):
        for value in (0.0, 123.4, 999.99, 1000.0):
            object_id = single_hash(value, 0.0, 1000.0, 20)
            assert len(object_id) == 20
            assert ks.is_kautz_string(object_id, base=2)

    def test_order_preserving(self):
        values = [index * 7.3 for index in range(137)]
        ids = [single_hash(value, 0.0, 1000.0, 16) for value in values]
        assert ids == sorted(ids)


class TestSingleAttributeNamer:
    def setup_method(self):
        self.namer = SingleAttributeNamer(low=0.0, high=1000.0, length=12)

    def test_name_matches_function(self):
        assert self.namer.name(250.0) == single_hash(250.0, 0.0, 1000.0, 12)

    def test_value_interval_inverse(self):
        for value in (0.0, 77.7, 500.0, 999.0):
            object_id = self.namer.name(value)
            assert self.namer.value_interval(object_id).contains(value)

    def test_region_for_range_endpoints(self):
        region = self.namer.region_for_range(100.0, 200.0)
        assert region.low == self.namer.name(100.0)
        assert region.high == self.namer.name(200.0)

    def test_region_contains_all_values_in_range(self):
        region = self.namer.region_for_range(100.0, 200.0)
        for value in (100.0, 150.0, 199.99, 200.0):
            assert self.namer.name(value) in region

    def test_region_excludes_far_values(self):
        region = self.namer.region_for_range(100.0, 200.0)
        for value in (0.0, 99.0, 300.0, 900.0):
            assert self.namer.name(value) not in region

    def test_region_clamps_out_of_interval_bounds(self):
        region = self.namer.region_for_range(-50.0, 2000.0)
        assert region.low == self.namer.name(0.0)
        assert region.high == self.namer.name(1000.0)

    def test_inverted_range_raises(self):
        with pytest.raises(QueryError):
            self.namer.region_for_range(300.0, 200.0)

    def test_region_bounds(self):
        region = self.namer.region_for_range(10.0, 20.0)
        low_id, high_id = region.low, region.high
        assert low_id <= high_id
        assert len(low_id) == len(high_id) == 12

    def test_matches_filter(self):
        assert self.namer.matches(150.0, 100.0, 200.0)
        assert not self.namer.matches(99.0, 100.0, 200.0)

    def test_prefix_interval_is_coarser_than_leaf(self):
        object_id = self.namer.name(400.0)
        leaf_interval = self.namer.value_interval(object_id)
        prefix_interval = self.namer.value_interval(object_id[:4])
        assert prefix_interval.low <= leaf_interval.low
        assert prefix_interval.high >= leaf_interval.high

    def test_properties(self):
        assert self.namer.low == 0.0
        assert self.namer.high == 1000.0
        assert self.namer.length == 12
        assert self.namer.base == 2


class TestIntervalPreservation:
    def test_image_of_range_is_exactly_the_region(self):
        """Definition 2: the image of [a, b] equals the Kautz region <F(a), F(b)>."""
        namer = SingleAttributeNamer(low=0.0, high=1.0, length=5)
        sample = [index / 2000 for index in range(2001)]
        for a, b in ((0.1, 0.24), (0.0, 0.05), (0.7, 1.0), (0.33, 0.34)):
            region = namer.region_for_range(a, b)
            image = {namer.name(value) for value in sample if a <= value <= b}
            # Every named value falls inside the region ...
            assert image <= set(region)
            # ... and with a dense enough sample the region is fully covered.
            assert image == set(region)

    def test_paper_worked_region(self):
        region = SingleAttributeNamer(low=0.0, high=1.0, length=4).region_for_range(0.1, 0.24)
        assert (region.low, region.high) == ("0120", "0202")
