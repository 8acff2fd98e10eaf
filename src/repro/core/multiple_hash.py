"""``Multiple_hash``: partial-order preserving naming for multi-attribute objects.

The multi-attribute partition tree reuses the shape of ``P(2, k)`` but splits
the multi-attribute space ``<[L0,H0], ..., [Lm-1,Hm-1]>`` along the attributes
in round-robin order: a node at depth ``j`` splits its box along attribute
``j mod m`` into as many equal slabs as it has children (``base + 1`` at the
root, ``base`` elsewhere).  Each node therefore represents an axis-aligned
box, each leaf a small box, and the leaf label is the object's ObjectID.

``Multiple_hash`` preserves the coordinate-wise partial order (Definition 4)
but not intervals, so MIRA cannot prune on a Kautz region alone: its pruning
predicate is "does the box of this label prefix intersect the query box?",
which :meth:`MultiAttributeNamer.box_for_label` provides.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.core.errors import NamingError, QueryError
from repro.core.partition_tree import Interval
from repro.kautz import strings as ks


class Box:
    """An axis-aligned box: one closed interval per attribute."""

    def __init__(self, intervals: Sequence[Interval]) -> None:
        if not intervals:
            raise NamingError("a box needs at least one attribute interval")
        self._intervals: Tuple[Interval, ...] = tuple(intervals)

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        """Per-attribute intervals."""
        return self._intervals

    @property
    def dimensions(self) -> int:
        """Number of attributes."""
        return len(self._intervals)

    def contains(self, point: Sequence[float]) -> bool:
        """True when ``point`` lies inside the box (all coordinates)."""
        if len(point) != self.dimensions:
            raise NamingError(
                f"point has {len(point)} coordinates, box has {self.dimensions}"
            )
        return all(interval.contains(value) for interval, value in zip(self._intervals, point))

    def intersects(self, other: "Box") -> bool:
        """True when the boxes overlap in every attribute."""
        if other.dimensions != self.dimensions:
            raise NamingError("boxes have different dimensionality")
        return all(
            mine.intersects(theirs) for mine, theirs in zip(self._intervals, other._intervals)
        )

    def replace(self, index: int, interval: Interval) -> "Box":
        """A copy of the box with attribute ``index`` replaced."""
        intervals = list(self._intervals)
        intervals[index] = interval
        return Box(intervals)

    def contains_box(self, other: "Box") -> bool:
        """True when ``other`` lies entirely inside this box."""
        if other.dimensions != self.dimensions:
            raise NamingError("boxes have different dimensionality")
        return all(
            mine.low <= theirs.low and theirs.high <= mine.high
            for mine, theirs in zip(self._intervals, other._intervals)
        )

    def intersection(self, other: "Box") -> "Box":
        """The overlapping box (raises when the boxes do not intersect)."""
        if not self.intersects(other):
            raise NamingError("boxes do not intersect")
        return Box(
            [
                Interval(max(mine.low, theirs.low), min(mine.high, theirs.high))
                for mine, theirs in zip(self._intervals, other._intervals)
            ]
        )

    def __repr__(self) -> str:
        parts = ", ".join(f"[{i.low:g}, {i.high:g}]" for i in self._intervals)
        return f"Box({parts})"


class MultiAttributeNamer:
    """Reusable ``Multiple_hash`` over a fixed multi-attribute space."""

    def __init__(
        self,
        intervals: Sequence[Tuple[float, float]],
        length: int,
        base: int = 2,
    ) -> None:
        if length < 1:
            raise NamingError(f"length must be >= 1, got {length}")
        if not intervals:
            raise NamingError("need at least one attribute interval")
        ks.alphabet(base)
        self._space = Box([Interval(low, high) for low, high in intervals])
        for interval in self._space.intervals:
            if interval.width <= 0:
                raise NamingError("every attribute interval must have positive width")
        self._length = length
        self._base = base
        self._symbols = ks.symbol_table(base)
        # label -> Box memo: MIRA's pruning predicate resolves the same
        # label prefixes over and over (once per forwarding decision), and
        # boxes are immutable, so sharing them is safe.  Bounded so a
        # pathological label stream cannot grow it without limit.
        self._box_cache: dict = {}

    @property
    def dimensions(self) -> int:
        """Number of attributes ``m``."""
        return self._space.dimensions

    @property
    def length(self) -> int:
        """ObjectID length ``k``."""
        return self._length

    @property
    def base(self) -> int:
        """Kautz base."""
        return self._base

    @property
    def space(self) -> Box:
        """The entire multi-attribute space (the root's box)."""
        return self._space

    # ------------------------------------------------------------------ #
    # naming                                                               #
    # ------------------------------------------------------------------ #

    def name(self, values: Sequence[float]) -> str:
        """ObjectID for a multi-attribute value (``Multiple_hash``)."""
        if len(values) != self.dimensions:
            raise NamingError(
                f"expected {self.dimensions} attribute values, got {len(values)}"
            )
        if not self._space.contains(values):
            raise NamingError(f"values {tuple(values)} outside the attribute space")
        # Allocation-free descent, as in PartitionTree.label_for_value: the
        # per-level float expressions are exactly Interval.locate's and
        # Interval.child's, applied to the bounds of the attribute being
        # split, so labels are bit-identical to a descent over Box objects.
        # Binary levels skip the scan.
        symbols = self._symbols
        dimensions = len(values)
        lows = [interval.low for interval in self._space.intervals]
        highs = [interval.high for interval in self._space.intervals]
        label: List[str] = []
        previous = None
        for depth in range(self._length):
            choices = symbols[previous]
            pieces = len(choices)
            attribute = depth % dimensions
            value = values[attribute]
            low = lows[attribute]
            step = (highs[attribute] - low) / pieces
            if pieces == 2:
                position = 0 if value < low + step else 1
            else:
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

    def box_for_label(self, label: str) -> Box:
        """The axis-aligned box represented by a label prefix (MIRA's pruning key)."""
        cached = self._box_cache.get(label)
        if cached is not None:
            return cached
        ks.validate_kautz_string(label, base=self._base, allow_empty=True)
        if len(label) > self._length:
            raise NamingError(f"label {label!r} deeper than the tree depth {self._length}")
        box = self._space
        previous = None
        for depth, symbol in enumerate(label):
            choices = ks.allowed_symbols(previous, base=self._base)
            position = choices.index(symbol)
            attribute = depth % self.dimensions
            interval = box.intervals[attribute]
            box = box.replace(attribute, interval.child(position, len(choices)))
            previous = symbol
        if len(self._box_cache) >= 65536:
            self._box_cache.clear()
        self._box_cache[label] = box
        return box

    # ------------------------------------------------------------------ #
    # range queries                                                        #
    # ------------------------------------------------------------------ #

    def query_box(self, ranges: Sequence[Tuple[float, float]]) -> Box:
        """Validate a multi-attribute range query and return its box."""
        if len(ranges) != self.dimensions:
            raise QueryError(
                f"query has {len(ranges)} ranges but the space has {self.dimensions} attributes"
            )
        intervals = []
        for index, (low, high) in enumerate(ranges):
            if high < low:
                raise QueryError(f"attribute {index}: low bound {low} exceeds high bound {high}")
            space_interval = self._space.intervals[index]
            intervals.append(
                Interval(space_interval.clamp(low), space_interval.clamp(high))
            )
        return Box(intervals)

    def corner_ids(self, ranges: Sequence[Tuple[float, float]]) -> Tuple[str, str]:
        """``(LowT, HighT)``: ObjectIDs of the low and high corners of the query box."""
        box = self.query_box(ranges)
        low_corner = [interval.low for interval in box.intervals]
        high_corner = [interval.high for interval in box.intervals]
        return self.name(low_corner), self.name(high_corner)

    def matches(self, values: Sequence[float], ranges: Sequence[Tuple[float, float]]) -> bool:
        """Local filter applied by destination peers to their stored objects."""
        box = self.query_box(ranges)
        return box.contains(values)

    def label_intersects_query(self, label: str, ranges: Sequence[Tuple[float, float]]) -> bool:
        """True when the box of ``label`` intersects the query box (MIRA pruning)."""
        return self.box_for_label(label).intersects(self.query_box(ranges))

    def containing_label(self, box: Box, start: str = "") -> str:
        """Deepest label extending ``start`` whose subspace contains ``box``.

        This is MIRA's analogue of the region common prefix ``ComT``: the
        query descends the partition tree while exactly one child subspace
        still contains the whole (clipped) query box, and the resulting label
        determines the destination level of the forward routing tree.
        """
        if not self.box_for_label(start).contains_box(box):
            raise NamingError(f"label {start!r} does not contain the given box")
        label = start
        while len(label) < self._length:
            previous = label[-1] if label else None
            next_label = None
            for symbol in ks.allowed_symbols(previous, base=self._base):
                child = label + symbol
                if self.box_for_label(child).contains_box(box):
                    next_label = child
                    break
            if next_label is None:
                break
            label = next_label
        return label


def multiple_hash(
    values: Sequence[float],
    intervals: Sequence[Tuple[float, float]],
    length: int,
    base: int = 2,
) -> str:
    """Functional form of ``Multiple_hash`` mirroring :func:`single_hash`."""
    namer = MultiAttributeNamer(intervals=intervals, length=length, base=base)
    return namer.name(values)

