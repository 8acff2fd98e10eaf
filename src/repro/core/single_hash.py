"""``Single_hash``: order-preserving naming for single-attribute objects.

``Single_hash(c, L, H, k)`` walks the partition tree ``P(2, k)`` built over
the attribute interval ``[L, H]`` and returns the label of the leaf whose
subinterval contains ``c``.  Because leaf labels enumerate ``KautzSpace(2,k)``
left to right and leaf subintervals tile ``[L, H]`` left to right, the map is
*interval preserving* (Definition 2): the objects with values in any range
``[a, b]`` are named exactly with the Kautz region ``<F(a), F(b)>``, which is
what lets PIRA turn a value range into a contiguous region of destination
peers.
"""

from __future__ import annotations

from repro.core.errors import QueryError
from repro.core.partition_tree import Interval, PartitionTree
from repro.kautz.region import KautzRegion, _contains_prefix_memo


def single_hash(value: float, low: float, high: float, length: int, base: int = 2) -> str:
    """Return the ObjectID (length-``length`` Kautz string) for ``value``.

    >>> single_hash(0.1, 0.0, 1.0, 4)
    '0120'
    """
    tree = PartitionTree(low=low, high=high, depth=length, base=base)
    return tree.label_for_value(value)


class SingleAttributeNamer:
    """Reusable ``Single_hash`` with a fixed attribute interval and ID length.

    Building the partition tree once and reusing it avoids re-validating the
    parameters on every insert, and gives a home to the inverse mapping and
    range-to-region conversion used by PIRA and by the tests.
    """

    # The never-called compatibility cache of ``repro.kautz.region``.
    _label_memo = _region_memo = staticmethod(_contains_prefix_memo)

    def __init__(self, low: float, high: float, length: int, base: int = 2) -> None:
        self._tree = PartitionTree(low=low, high=high, depth=length, base=base)
        self._length = length
        self._base = base

    @property
    def low(self) -> float:
        """Lower bound of the attribute interval."""
        return self._tree.interval.low

    @property
    def high(self) -> float:
        """Upper bound of the attribute interval."""
        return self._tree.interval.high

    @property
    def length(self) -> int:
        """ObjectID length ``k``."""
        return self._length

    @property
    def base(self) -> int:
        """Kautz base."""
        return self._base

    @property
    def tree(self) -> PartitionTree:
        """The underlying partition tree."""
        return self._tree

    def name(self, value: float) -> str:
        """ObjectID for an attribute value (``Single_hash``)."""
        return self._tree.label_for_value(value)

    def value_interval(self, object_id: str) -> Interval:
        """Subinterval of attribute values mapping onto ``object_id`` (inverse
        map), or onto the ObjectIDs extending ``object_id`` when it is shorter."""
        return self._tree.interval_for_label(object_id)

    def region_for_range(self, low_value: float, high_value: float) -> KautzRegion:
        """Kautz region ``<Single_hash(low), Single_hash(high)>`` for a value range."""
        if high_value < low_value:
            raise QueryError(
                f"range low bound {low_value} exceeds high bound {high_value}"
            )
        interval = self._tree.interval
        return KautzRegion(
            low=self._tree.label_for_value(interval.clamp(low_value)),
            high=self._tree.label_for_value(interval.clamp(high_value)),
            base=self._base,
        )

    def matches(self, value: float, low_value: float, high_value: float) -> bool:
        """Local filter applied by destination peers to their stored objects."""
        return low_value <= value <= high_value
