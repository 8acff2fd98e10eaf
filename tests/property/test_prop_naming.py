"""Property-based tests for the Single_hash / Multiple_hash naming algorithms."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import NamingError
from repro.core.multiple_hash import Box, MultiAttributeNamer
from repro.core.partition_tree import Interval, PartitionTree
from repro.core.single_hash import SingleAttributeNamer
from repro.kautz import strings as ks

NAMER = SingleAttributeNamer(low=0.0, high=1000.0, length=12)
MULTI = MultiAttributeNamer(intervals=((0.0, 100.0), (0.0, 50.0)), length=12)

values = st.floats(min_value=0.0, max_value=1000.0, allow_nan=False, allow_infinity=False)
coords = st.tuples(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_infinity=False),
    st.floats(min_value=0.0, max_value=50.0, allow_nan=False, allow_infinity=False),
)


class TestSingleHashProperties:
    @given(values)
    def test_names_are_valid_fixed_length_kautz_strings(self, value):
        object_id = NAMER.name(value)
        assert len(object_id) == 12
        assert ks.is_kautz_string(object_id, base=2)

    @given(values, values)
    def test_order_preservation(self, first, second):
        if first <= second:
            assert NAMER.name(first) <= NAMER.name(second)
        else:
            assert NAMER.name(first) >= NAMER.name(second)

    @given(values)
    def test_inverse_interval_contains_value(self, value):
        object_id = NAMER.name(value)
        assert NAMER.value_interval(object_id).contains(value)

    @given(values, values, values)
    def test_values_inside_range_map_into_region(self, value, bound_a, bound_b):
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        region = NAMER.region_for_range(low, high)
        if low <= value <= high:
            assert NAMER.name(value) in region

    @settings(max_examples=60)
    @given(values, values, values)
    def test_values_outside_range_never_lost_by_region(self, value, bound_a, bound_b):
        """Contrapositive of interval preservation: names outside the region
        belong to values outside the range."""
        low, high = min(bound_a, bound_b), max(bound_a, bound_b)
        region = NAMER.region_for_range(low, high)
        if NAMER.name(value) not in region:
            assert not (low <= value <= high)


class TestMultipleHashProperties:
    @given(coords)
    def test_names_are_valid_kautz_strings(self, point):
        object_id = MULTI.name(point)
        assert len(object_id) == 12
        assert ks.is_kautz_string(object_id, base=2)

    @given(coords, coords)
    def test_partial_order_preservation(self, first, second):
        if all(a <= b for a, b in zip(first, second)):
            assert MULTI.name(first) <= MULTI.name(second)

    @given(coords)
    def test_box_of_every_prefix_contains_the_point(self, point):
        object_id = MULTI.name(point)
        for cut in range(0, len(object_id) + 1, 3):
            assert MULTI.box_for_label(object_id[:cut]).contains(point)

    @given(coords, coords, coords)
    def test_matching_points_intersect_query_labels(self, point, corner_a, corner_b):
        ranges = [
            (min(corner_a[0], corner_b[0]), max(corner_a[0], corner_b[0])),
            (min(corner_a[1], corner_b[1]), max(corner_a[1], corner_b[1])),
        ]
        if all(low <= value <= high for value, (low, high) in zip(point, ranges)):
            object_id = MULTI.name(point)
            # MIRA's pruning predicate must keep every prefix of a matching
            # object's id alive.
            for cut in (2, 5, 9, 12):
                assert MULTI.label_intersects_query(object_id[:cut], ranges)


# --------------------------------------------------------------------- #
# Multiple_hash's descent against the Interval-object descent it replaced #
# --------------------------------------------------------------------- #

SPACES = {
    1: ((0.0, 1000.0),),
    2: ((0.0, 100.0), (0.0, 50.0)),
    3: ((-5.0, 5.0), (0.0, 1.0), (10.0, 1000.0)),
}
DEEP = {m: MultiAttributeNamer(intervals=space, length=32) for m, space in SPACES.items()}


def coordinate(low: float, high: float):
    """Any value of ``[low, high]``, weighted towards subdivision boundaries:
    both ends and the thirds, sixths, twelfths the top levels split at."""
    boundaries = [low + (high - low) * k / 12 for k in range(12)] + [high]
    return st.one_of(
        st.floats(min_value=low, max_value=high, allow_nan=False),
        st.sampled_from(boundaries),
    )


def points(m: int):
    return st.tuples(*(coordinate(low, high) for low, high in SPACES[m]))


def interval_descent(namer: MultiAttributeNamer, values) -> str:
    """``Multiple_hash`` over ``Interval`` objects: one ``locate`` and one
    ``child`` per level on the attribute that level splits."""
    intervals = list(namer.space.intervals)
    label = []
    previous = None
    for depth in range(namer.length):
        choices = ks.allowed_symbols(previous, base=namer.base)
        attribute = depth % namer.dimensions
        position = intervals[attribute].locate(values[attribute], len(choices))
        intervals[attribute] = intervals[attribute].child(position, len(choices))
        previous = choices[position]
        label.append(previous)
    return "".join(label)


class TestMultipleHashDescentEquivalence:
    @given(st.sampled_from(sorted(SPACES)).flatmap(lambda m: st.tuples(st.just(m), points(m))))
    def test_name_equals_interval_descent(self, case):
        m, point = case
        assert DEEP[m].name(point) == interval_descent(DEEP[m], point)

    @pytest.mark.parametrize("m", sorted(SPACES))
    def test_corners_equal_interval_descent(self, m):
        low_corner = [low for low, _high in SPACES[m]]
        high_corner = [high for _low, high in SPACES[m]]
        for corner in (low_corner, high_corner):
            assert DEEP[m].name(corner) == interval_descent(DEEP[m], corner)
        assert DEEP[m].name(low_corner) == ks.min_extension("", 32)
        assert DEEP[m].name(high_corner) == ks.max_extension("", 32)

    @given(points(1))
    def test_one_attribute_equals_single_hash(self, point):
        tree = PartitionTree(*SPACES[1][0], depth=32)
        assert DEEP[1].name(point) == tree.label_for_value(point[0])

    @given(points(2), st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
    def test_out_of_space_and_wrong_arity_still_raise(self, point, excess):
        for outside in ((point[0], 50.0 + excess), (-excess, point[1])):
            with pytest.raises(NamingError):
                DEEP[2].name(outside)
        for wrong_arity in (point[:1], point + (0.0,), ()):
            with pytest.raises(NamingError):
                DEEP[2].name(wrong_arity)


# --------------------------------------------------------------------- #
# The symbol-table descents against the loops they replaced             #
# --------------------------------------------------------------------- #


def per_level_descent(tree: PartitionTree, value: float) -> str:
    """``Single_hash`` as it was written before the symbol table: one
    ``allowed_symbols_tuple`` call and one ``pieces``-way scan per level."""
    low, high = tree.interval.low, tree.interval.high
    label = []
    previous = None
    for _ in range(tree.depth):
        choices = ks.allowed_symbols_tuple(previous, base=tree.base)
        pieces = len(choices)
        step = (high - low) / pieces
        position = pieces - 1
        for index in range(pieces - 1):
            if value < low + step * (index + 1):
                position = index
                break
        previous = choices[position]
        label.append(previous)
        if position != pieces - 1:
            high = low + step * (position + 1)
        low = low + step * position
    return "".join(label)


def per_level_multi_descent(namer: MultiAttributeNamer, values) -> str:
    """``Multiple_hash`` as it was written before the symbol table."""
    lows = [interval.low for interval in namer.space.intervals]
    highs = [interval.high for interval in namer.space.intervals]
    label = []
    previous = None
    for depth in range(namer.length):
        choices = ks.allowed_symbols_tuple(previous, base=namer.base)
        pieces = len(choices)
        attribute = depth % namer.dimensions
        value = values[attribute]
        low = lows[attribute]
        step = (highs[attribute] - low) / pieces
        position = pieces - 1
        for index in range(pieces - 1):
            if value < low + step * (index + 1):
                position = index
                break
        previous = choices[position]
        label.append(previous)
        if position != pieces - 1:
            highs[attribute] = low + step * (position + 1)
        lows[attribute] = low + step * position
    return "".join(label)


INTERVALS = ((0.0, 1000.0), (-5.0, 5.0))
#: deepest level whose every subdivision boundary is checked, per base
#: (a few thousand labels each)
BOUNDARY_DEPTH = {2: 12, 3: 8, 4: 6}


def trees(base: int, interval):
    return [PartitionTree(*interval, depth=depth, base=base) for depth in (1, 3, 32)]


def boundary_values(base: int, interval):
    """Both ends of every node's subinterval down to ``BOUNDARY_DEPTH``, the
    interval's ends and ``±0.0`` when the interval holds zero (a set keeps
    only one of the two zeros, so they are appended after it)."""
    tree = PartitionTree(*interval, depth=32, base=base)
    found = {interval[0], interval[1]}
    labels = [""]
    for _ in range(BOUNDARY_DEPTH[base]):
        labels = [child for label in labels for child in tree.children_labels(label)]
        for label in labels:
            node = tree.interval_for_label(label)
            found |= {node.low, node.high}
    return sorted(found) + ([0.0, -0.0] if interval[0] <= 0.0 <= interval[1] else [])


class TestSingleHashTableWalk:
    @pytest.mark.parametrize("base", [2, 3, 4])
    @pytest.mark.parametrize("interval", INTERVALS)
    def test_every_boundary_names_as_before(self, base, interval):
        checked = boundary_values(base, interval)
        for tree in trees(base, interval):
            for value in checked:
                assert tree.label_for_value(value) == per_level_descent(tree, value), value

    @given(
        st.sampled_from([2, 3, 4]),
        st.sampled_from(INTERVALS).flatmap(
            lambda interval: st.tuples(
                st.just(interval),
                st.floats(min_value=interval[0], max_value=interval[1], allow_nan=False),
            )
        ),
    )
    def test_random_values_name_as_before(self, base, case):
        interval, value = case
        for tree in trees(base, interval):
            assert tree.label_for_value(value) == per_level_descent(tree, value)

    @given(values)
    def test_namer_calls_straight_through(self, value):
        assert NAMER.name(value) == per_level_descent(NAMER.tree, value)


MULTI_BASES = {
    (m, base): MultiAttributeNamer(intervals=space, length=32, base=base)
    for m, space in SPACES.items()
    for base in (2, 3)
}


class TestMultipleHashTableWalk:
    @given(
        st.sampled_from(sorted(MULTI_BASES)).flatmap(
            lambda key: st.tuples(st.just(key), points(key[0]))
        )
    )
    def test_name_equals_per_level_descent(self, case):
        key, point = case
        namer = MULTI_BASES[key]
        assert namer.name(point) == per_level_multi_descent(namer, point)


# --------------------------------------------------------------------- #
# MIRA's carried walk against the Box descent it replaced               #
# --------------------------------------------------------------------- #

WALKERS = {
    (m, base): MultiAttributeNamer(intervals=SPACES[m], length=12, base=base)
    for m in (2, 3)
    for base in (2, 3)
}


def box_descent(namer: MultiAttributeNamer, label: str) -> Box:
    """``box_for_label`` as it was written before the walk: one
    ``Interval.child`` and one new ``Box`` per symbol."""
    box = namer.space
    previous = None
    for depth, symbol in enumerate(label):
        choices = ks.allowed_symbols(previous, base=namer.base)
        attribute = depth % namer.dimensions
        intervals = list(box.intervals)
        intervals[attribute] = intervals[attribute].child(choices.index(symbol), len(choices))
        box = Box(intervals)
        previous = symbol
    return box


def containing_descent(namer: MultiAttributeNamer, box: Box, start: str) -> str:
    """``containing_label`` as it was written before the walk: every child's
    box resolved from the root."""
    label = start
    while len(label) < namer.length:
        previous = label[-1] if label else None
        for symbol in ks.allowed_symbols(previous, base=namer.base):
            if box_descent(namer, label + symbol).contains_box(box):
                label += symbol
                break
        else:
            break
    return label


def exact(bounds):
    """Bounds spelled bit for bit (``-0.0`` differs from ``0.0``)."""
    return [[value.hex() for value in side] for side in bounds]


@st.composite
def split_labels_and_boxes(draw):
    """A namer, a Kautz label cut into a prefix and an extension, and a query
    box whose edges are anywhere in the space or on a partition boundary of
    the label or one of its ancestors; about one box in four has a
    zero-width side."""
    key = draw(st.sampled_from(sorted(WALKERS)))
    namer = WALKERS[key]
    length = draw(st.integers(min_value=0, max_value=namer.length))
    label = ""
    if length:
        rank = draw(st.integers(min_value=0, max_value=ks.space_size(namer.base, length) - 1))
        label = ks.unrank(rank, length, base=namer.base)
    cut = draw(st.integers(min_value=0, max_value=length))
    ancestors = [box_descent(namer, label[:depth]) for depth in range(length + 1)]
    intervals = []
    for attribute, (low, high) in enumerate(SPACES[key[0]]):
        sides = [box.intervals[attribute] for box in ancestors]
        edges = sorted({side.low for side in sides} | {side.high for side in sides})
        edge = st.one_of(
            st.floats(min_value=low, max_value=high, allow_nan=False), st.sampled_from(edges)
        )
        first = draw(edge)
        second = first if draw(st.integers(min_value=0, max_value=3)) == 0 else draw(edge)
        intervals.append(Interval(min(first, second), max(first, second)))
    return key, label, cut, Box(intervals)


class TestCarriedWalk:
    @settings(max_examples=300)
    @given(split_labels_and_boxes())
    def test_extended_walk_meets_exactly_when_the_box_intersects(self, case):
        key, label, cut, box = case
        namer = WALKERS[key]
        walk = namer.walk(label[cut:], namer.walk(label[:cut]))
        reference = box_descent(namer, label)
        assert walk.meets(*box.bounds()) == reference.intersects(box)
        assert exact((walk.lows, walk.highs)) == exact(reference.bounds())
        assert (walk.last, walk.depth) == (label[-1] if label else None, len(label))
        assert exact(namer.box_for_label(label).bounds()) == exact(reference.bounds())

    @given(split_labels_and_boxes())
    def test_containing_label_is_the_per_child_descent(self, case):
        key, label, _cut, box = case
        namer = WALKERS[key]
        for start in ("", label[:1], label[:3]):
            if box_descent(namer, start).contains_box(box):
                assert namer.containing_label(box, start) == containing_descent(namer, box, start)
            else:
                with pytest.raises(NamingError):
                    namer.containing_label(box, start)
