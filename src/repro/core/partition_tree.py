"""The partition tree ``P(2, k)`` (Section 4.1 of the paper).

The partition tree is the bridge between attribute values and the Kautz
namespace.  It is shaped like a complete binary tree except that the root has
``base + 1`` children; edge labels out of a node are the symbols different
from the node's own last symbol, increasing left to right.  Consequently

* the labels of the nodes at depth ``j`` are exactly the Kautz strings (or
  prefixes) of length ``j``, and
* the labels of the ``k``-th level leaves enumerate ``KautzSpace(2, k)`` in
  lexicographic order from left to right.

Partitioning the attribute interval ``[L, H]`` level by level (the root's
children split it into ``base + 1`` equal parts, every other node's children
into ``base`` equal parts) assigns each leaf a subinterval; ``Single_hash``
simply returns the leaf whose subinterval contains the value.  The same tree
with round-robin attribute splitting yields ``Multiple_hash``
(:mod:`repro.core.multiple_hash`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.core.errors import NamingError
from repro.kautz import strings as ks


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval ``[low, high]``."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.high < self.low:
            raise NamingError(f"interval high {self.high} below low {self.low}")

    @property
    def width(self) -> float:
        """Length of the interval."""
        return self.high - self.low

    def contains(self, value: float) -> bool:
        """True when ``value`` lies inside the closed interval."""
        return self.low <= value <= self.high

    def intersects(self, other: "Interval") -> bool:
        """True when the two closed intervals overlap."""
        return self.low <= other.high and other.low <= self.high

    def subdivide(self, pieces: int) -> List["Interval"]:
        """Split into ``pieces`` equal consecutive subintervals."""
        if pieces < 1:
            raise NamingError("pieces must be >= 1")
        step = self.width / pieces
        bounds = [self.low + step * index for index in range(pieces)] + [self.high]
        return [Interval(bounds[index], bounds[index + 1]) for index in range(pieces)]

    def child(self, position: int, pieces: int) -> "Interval":
        """``subdivide(pieces)[position]`` without building the list.

        Uses the exact float expressions :meth:`subdivide` uses, so the
        resulting interval is bit-identical — the naming layer's hot paths
        (``Single_hash``/``Multiple_hash`` descents, MIRA box pruning)
        call this once per level instead of allocating every sibling.
        """
        step = self.width / pieces
        low = self.low + step * position
        high = self.high if position == pieces - 1 else self.low + step * (position + 1)
        return Interval(low, high)

    def locate(self, value: float, pieces: int) -> int:
        """Index of the subinterval of ``pieces`` containing ``value``.

        Boundary semantics are identical to running :func:`_locate` over
        :meth:`subdivide` output (boundaries go right, the global maximum
        goes last), with the same float comparisons and no allocation.
        """
        step = self.width / pieces
        for index in range(pieces - 1):
            if value < self.low + step * (index + 1):
                return index
        return pieces - 1

    def clamp(self, value: float) -> float:
        """Clamp ``value`` into the interval."""
        return min(self.high, max(self.low, value))


class PartitionTree:
    """Single-attribute partition tree ``P(base, depth)`` over ``[low, high]``."""

    def __init__(self, low: float, high: float, depth: int, base: int = 2) -> None:
        if depth < 1:
            raise NamingError(f"depth must be >= 1, got {depth}")
        if high <= low:
            raise NamingError(f"attribute interval [{low}, {high}] is empty")
        ks.alphabet(base)
        self._interval = Interval(low, high)
        self._depth = depth
        self._base = base
        self._symbols = ks.symbol_table(base)

    @property
    def depth(self) -> int:
        """Number of levels below the root (= length of leaf labels)."""
        return self._depth

    @property
    def base(self) -> int:
        """Kautz base (non-root nodes have ``base`` children)."""
        return self._base

    @property
    def interval(self) -> Interval:
        """The whole attribute interval ``[L, H]`` represented by the root."""
        return self._interval

    # ------------------------------------------------------------------ #
    # label <-> interval correspondence                                    #
    # ------------------------------------------------------------------ #

    def children_labels(self, label: str) -> List[str]:
        """Labels of the children of the node ``label`` (left to right)."""
        ks.validate_kautz_string(label, base=self._base, allow_empty=True)
        if len(label) >= self._depth:
            return []
        previous = label[-1] if label else None
        return [label + symbol for symbol in ks.allowed_symbols(previous, base=self._base)]

    def interval_for_label(self, label: str) -> Interval:
        """Subinterval of ``[L, H]`` represented by the node ``label``.

        The root (empty label) represents the whole interval; each level
        subdivides its parent's interval evenly among the children, matching
        the left-to-right order of the edge labels.
        """
        ks.validate_kautz_string(label, base=self._base, allow_empty=True)
        if len(label) > self._depth:
            raise NamingError(
                f"label {label!r} is deeper than the partition tree depth {self._depth}"
            )
        current = self._interval
        previous = None
        for symbol in label:
            choices = ks.allowed_symbols(previous, base=self._base)
            position = choices.index(symbol)
            current = current.child(position, len(choices))
            previous = symbol
        return current

    def label_for_value(self, value: float, depth: int = 0) -> str:
        """Leaf (or depth-``depth`` node) whose subinterval contains ``value``.

        Values on a subdivision boundary are assigned to the right-hand
        subinterval except at the global maximum ``H``, which belongs to the
        right-most leaf; this makes the mapping total and order preserving.
        """
        if not self._interval.contains(value):
            raise NamingError(
                f"value {value} outside the attribute interval "
                f"[{self._interval.low}, {self._interval.high}]"
            )
        target_depth = depth if depth > 0 else self._depth
        if target_depth > self._depth:
            raise NamingError(f"requested depth {target_depth} exceeds tree depth {self._depth}")
        # Allocation-free descent: the per-level float expressions are exactly
        # the ones Interval.locate / Interval.child use, so the resulting
        # label is bit-identical to a descent over Interval objects.  Binary
        # levels (every level below the root in base 2) skip the scan.
        symbols = self._symbols
        low = self._interval.low
        high = self._interval.high
        label: List[str] = []
        previous = None
        for _ in range(target_depth):
            choices = symbols[previous]
            pieces = len(choices)
            step = (high - low) / pieces
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
                high = low + step * (position + 1)
            low = low + step * position
        return ks.intern_label("".join(label))

    def leaf_labels(self) -> List[str]:
        """All leaf labels in lexicographic (left-to-right) order.

        Only intended for small depths (tests and worked examples).
        """
        return ks.kautz_strings_with_prefix("", self._depth, base=self._base)

    def __repr__(self) -> str:
        return (
            f"PartitionTree(low={self._interval.low}, high={self._interval.high}, "
            f"depth={self._depth}, base={self._base})"
        )
