"""``Multiple_hash``: partial-order preserving naming for multi-attribute objects.

The multi-attribute partition tree reuses the shape of ``P(2, k)`` but splits
the multi-attribute space ``<[L0,H0], ..., [Lm-1,Hm-1]>`` along the attributes
in round-robin order: a node at depth ``j`` splits its box along attribute
``j mod m`` into as many equal slabs as it has children (``base + 1`` at the
root, ``base`` elsewhere).  Each node therefore represents an axis-aligned
box, each leaf a small box, and the leaf label is the object's ObjectID.

``Multiple_hash`` preserves the coordinate-wise partial order (Definition 4)
but not intervals, so MIRA cannot prune on a Kautz region alone: its pruning
predicate is "does the box of this label prefix intersect the query box?".
MIRA answers it with a carried :class:`Walk` — a descent stopped at a label,
its box held as float bounds — that a relay extends by only the symbols each
neighbour's label adds (:meth:`MultiAttributeNamer.walk`).
:meth:`MultiAttributeNamer.box_for_label` is the same walk as a :class:`Box`,
for the query's set-up, the oracle and the tests; it is not on the
forwarding path.
"""

from __future__ import annotations

from operator import le
from typing import List, NamedTuple, Optional, Sequence, Tuple

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

    def bounds(self) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
        """``(lows, highs)``: the per-attribute bounds a :class:`Walk` is
        compared against."""
        return tuple(i.low for i in self._intervals), tuple(i.high for i in self._intervals)

    def __repr__(self) -> str:
        parts = ", ".join(f"[{i.low:g}, {i.high:g}]" for i in self._intervals)
        return f"Box({parts})"


class Walk(NamedTuple):
    """A descent of the multi-attribute partition tree stopped at a label:
    the label's box as per-attribute float bounds, its last symbol and its
    depth.  Immutable, so a forwarding message can carry its receiver's
    walk and the receiver extends it (:meth:`MultiAttributeNamer.walk`)."""

    lows: Tuple[float, ...]
    highs: Tuple[float, ...]
    last: Optional[str]
    depth: int

    def meets(self, lows: Sequence[float], highs: Sequence[float]) -> bool:
        """:meth:`Box.intersects` against the box ``(lows, highs)``."""
        return all(map(le, self.lows, highs)) and all(map(le, lows, self.highs))


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
        self._root = Walk(*self._space.bounds(), None, 0)

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

    def walk(self, symbols: str, start: Optional[Walk] = None) -> Walk:
        """``start`` (the root when ``None``) extended by ``symbols``.

        Unchecked, for the forwarding path: ``symbols`` must continue
        ``start``'s label as a Kautz string no deeper than the tree.  The
        per-level float expressions are exactly :meth:`Interval.child`'s,
        applied to the bounds of the attribute being split, so the bounds
        are bit-identical to a descent over :class:`Box` objects.
        """
        walk = self._root if start is None else start
        if not symbols:
            return walk
        lows, highs, previous, depth = list(walk.lows), list(walk.highs), walk.last, walk.depth
        dimensions = len(lows)
        for symbol in symbols:
            choices = self._symbols[previous]
            pieces = len(choices)
            position = choices.index(symbol)
            attribute = depth % dimensions
            low = lows[attribute]
            step = (highs[attribute] - low) / pieces
            if position != pieces - 1:
                highs[attribute] = low + step * (position + 1)
            lows[attribute] = low + step * position
            previous = symbol
            depth += 1
        # Allocated without the named tuple's ``__new__`` frame: this runs
        # once per neighbour of every MIRA relay.
        return tuple.__new__(Walk, (tuple(lows), tuple(highs), previous, depth))

    def _checked_walk(self, label: str) -> Walk:
        """:meth:`walk` from the root to ``label``, the label checked first."""
        ks.validate_kautz_string(label, base=self._base, allow_empty=True)
        if len(label) > self._length:
            raise NamingError(f"label {label!r} deeper than the tree depth {self._length}")
        return self.walk(label)

    def box_for_label(self, label: str) -> Box:
        """The axis-aligned box represented by a label prefix: the
        :class:`Box` of its :meth:`walk`."""
        walk = self._checked_walk(label)
        return Box([Interval(low, high) for low, high in zip(walk.lows, walk.highs)])

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

    def matches(self, values: Sequence[float], ranges: Sequence[Tuple[float, float]]) -> bool:
        """Local filter applied by destination peers to their stored objects."""
        box = self.query_box(ranges)
        return box.contains(values)

    def containing_label(self, box: Box, start: str = "") -> str:
        """Deepest label extending ``start`` whose subspace contains ``box``.

        This is MIRA's analogue of the region common prefix ``ComT``: the
        query descends the partition tree while exactly one child subspace
        still contains the whole (clipped) query box, and the resulting label
        determines the destination level of the forward routing tree.  One
        descent: each level extends the last walk by one child's symbol.
        """
        if box.dimensions != self.dimensions:
            raise NamingError("boxes have different dimensionality")
        lows, highs = box.bounds()
        label, walk = start, self._checked_walk(start)
        if not (all(map(le, walk.lows, lows)) and all(map(le, highs, walk.highs))):
            raise NamingError(f"label {start!r} does not contain the given box")
        while walk.depth < self._length:
            # The walk contains the box, and a child differs from it only on
            # the attribute this level splits: contains_box is that one test.
            split = walk.depth % len(lows)
            for symbol in self._symbols[walk.last]:
                child = self.walk(symbol, walk)
                if child.lows[split] <= lows[split] and highs[split] <= child.highs[split]:
                    break
            else:
                break
            walk = child
            label += symbol
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
