"""Armada (PIRA/MIRA) behind the common range-query scheme interface.

This adapter lets the experiment harness sweep Armada with exactly the same
driver code it uses for the baselines.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.core.armada import ArmadaSystem
from repro.rangequery.base import (
    AttributeSpace,
    QueryMeasurement,
    RangeQueryScheme,
    record_query,
)


class ArmadaScheme(RangeQueryScheme):
    """Armada over FISSIONE, adapted to :class:`RangeQueryScheme`."""

    name = "Armada (PIRA)"
    supports_multi_attribute = True
    underlying_degree = "4 (FISSIONE)"
    delay_bounded = True

    def __init__(
        self,
        space: Optional[AttributeSpace] = None,
        object_id_length: int = 32,
        attribute_intervals: Optional[Sequence[Tuple[float, float]]] = None,
    ) -> None:
        self.space = space if space is not None else AttributeSpace()
        self.object_id_length = object_id_length
        self.attribute_intervals = (
            tuple(attribute_intervals) if attribute_intervals is not None else None
        )
        self.system: Optional[ArmadaSystem] = None

    def build(self, num_peers: int, seed: int) -> None:
        self.system = ArmadaSystem(
            num_peers=num_peers,
            seed=seed,
            attribute_interval=(self.space.low, self.space.high),
            attribute_intervals=self.attribute_intervals,
            object_id_length=self.object_id_length,
        )

    def load(self, values: Sequence[float]) -> None:
        self._require_built()
        assert self.system is not None
        self.system.insert_many(values)

    def load_multi(self, tuples: Sequence[Tuple[float, ...]]) -> None:
        self._require_built()
        assert self.system is not None
        for values in tuples:
            self.system.insert_multi(values, payload=tuple(values))

    def query(self, low: float, high: float) -> QueryMeasurement:
        self._require_built()
        assert self.system is not None
        result = self.system.range_query(self.space.clamp(low), self.space.clamp(high))
        return record_query(
            delay_hops=result.delay_hops,
            messages=result.messages,
            destinations=result.destination_count,
            matches=[float(value) for value in result.matching_values()],
        )

    def query_multi(self, ranges: Sequence[Tuple[float, float]]) -> QueryMeasurement:
        self._require_built()
        assert self.system is not None
        result = self.system.multi_range_query(ranges)
        return record_query(
            delay_hops=result.delay_hops,
            messages=result.messages,
            destinations=result.destination_count,
            matches=[],
        )

    @property
    def size(self) -> int:
        return self.system.size if self.system is not None else 0

    def _require_built(self) -> None:
        if self.system is None:
            raise RuntimeError("call build() before using the scheme")
