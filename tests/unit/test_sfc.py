"""Unit tests for the space-filling curve helpers."""

from __future__ import annotations

import pytest

from repro.rangequery.sfc import (
    hilbert_d2xy,
    hilbert_xy2d,
    merge_ranges,
    morton_decode,
    morton_encode,
    query_box_to_curve_ranges,
    value_to_cell,
)


class TestMorton:
    def test_encode_decode_roundtrip_2d(self):
        order = 4
        for x in range(16):
            for y in range(16):
                index = morton_encode([x, y], order)
                assert morton_decode(index, 2, order) == (x, y)

    def test_encode_decode_roundtrip_3d(self):
        order = 3
        for x in range(0, 8, 2):
            for y in range(1, 8, 3):
                for z in range(8):
                    index = morton_encode([x, y, z], order)
                    assert morton_decode(index, 3, order) == (x, y, z)

    def test_encode_is_bijective_over_grid(self):
        order = 3
        indices = {morton_encode([x, y], order) for x in range(8) for y in range(8)}
        assert indices == set(range(64))

    def test_first_coordinate_is_most_significant(self):
        assert morton_encode([1, 0], 1) == 2
        assert morton_encode([0, 1], 1) == 1

    def test_out_of_range_coordinate_raises(self):
        with pytest.raises(ValueError):
            morton_encode([4, 0], 2)
        with pytest.raises(ValueError):
            morton_decode(100, 2, 2)
        with pytest.raises(ValueError):
            morton_encode([], 2)


class TestHilbert:
    def test_xy2d_d2xy_roundtrip(self):
        order = 4
        for distance in range(1 << (2 * order)):
            x, y = hilbert_d2xy(order, distance)
            assert hilbert_xy2d(order, x, y) == distance

    def test_curve_is_continuous(self):
        # Consecutive curve positions are adjacent cells (Manhattan distance 1).
        order = 5
        previous = hilbert_d2xy(order, 0)
        for distance in range(1, 1 << (2 * order)):
            current = hilbert_d2xy(order, distance)
            manhattan = abs(current[0] - previous[0]) + abs(current[1] - previous[1])
            assert manhattan == 1
            previous = current

    def test_covers_every_cell_once(self):
        order = 3
        cells = {hilbert_d2xy(order, distance) for distance in range(64)}
        assert len(cells) == 64

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            hilbert_xy2d(2, 4, 0)
        with pytest.raises(ValueError):
            hilbert_d2xy(2, 16)


class TestValueCells:
    def test_value_to_cell_bounds(self):
        assert value_to_cell(0.0, 4) == 0
        assert value_to_cell(0.999, 4) == 15
        assert value_to_cell(1.5, 4) == 15  # clamped


class TestMergeRanges:
    def test_merges_adjacent_and_overlapping(self):
        assert merge_ranges([(0, 3), (4, 6), (10, 12), (5, 8)]) == [(0, 8), (10, 12)]

    def test_empty(self):
        assert merge_ranges([]) == []

    def test_single(self):
        assert merge_ranges([(3, 4)]) == [(3, 4)]


class TestQueryBoxDecomposition:
    def test_morton_ranges_cover_exactly_the_box(self):
        order = 4
        lows, highs = [0.25, 0.5], [0.49, 0.74]
        ranges = query_box_to_curve_ranges(lows, highs, order, curve="morton", max_ranges=256)
        cell_low = [value_to_cell(low, order) for low in lows]
        cell_high = [value_to_cell(high, order) for high in highs]
        expected = {
            morton_encode([x, y], order)
            for x in range(cell_low[0], cell_high[0] + 1)
            for y in range(cell_low[1], cell_high[1] + 1)
        }
        covered = set()
        for start, end in ranges:
            covered.update(range(start, end + 1))
        assert expected <= covered

    def test_range_budget_produces_superset(self):
        order = 6
        tight = query_box_to_curve_ranges([0.1, 0.1], [0.6, 0.2], order, max_ranges=512)
        coarse = query_box_to_curve_ranges([0.1, 0.1], [0.6, 0.2], order, max_ranges=4)
        assert len(coarse) <= len(tight)
        tight_cells = set()
        for start, end in tight:
            tight_cells.update(range(start, end + 1))
        coarse_cells = set()
        for start, end in coarse:
            coarse_cells.update(range(start, end + 1))
        assert tight_cells <= coarse_cells

    def test_hilbert_decomposition_small_box(self):
        ranges = query_box_to_curve_ranges([0.0, 0.0], [0.12, 0.12], 3, curve="hilbert")
        assert ranges
        covered = set()
        for start, end in ranges:
            covered.update(range(start, end + 1))
        cell_high = value_to_cell(0.12, 3)
        expected = {
            hilbert_xy2d(3, x, y) for x in range(cell_high + 1) for y in range(cell_high + 1)
        }
        assert covered == expected

    def test_unknown_curve_rejected(self):
        with pytest.raises(ValueError):
            query_box_to_curve_ranges([0.0], [0.1], 4, curve="peano")

    def test_hilbert_requires_two_dimensions(self):
        with pytest.raises(ValueError):
            query_box_to_curve_ranges([0.0], [0.1], 4, curve="hilbert")
