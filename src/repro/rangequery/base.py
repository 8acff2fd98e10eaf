"""Common interface and measurement record for range-query schemes.

The paper's experiments measure, per query: delay (overlay hops until the
last destination peer is reached), message cost, and the number of
destination peers.  :class:`QueryMeasurement` is that triple plus the
matching values; :class:`RangeQueryScheme` is the uniform driver interface
the experiment harness sweeps.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple


@dataclass
class QueryMeasurement:
    """Per-query measurements shared by every scheme."""

    delay_hops: int
    messages: int
    destination_peers: int
    matches: List[float] = field(default_factory=list)

    def mesg_ratio(self) -> float:
        """``MesgRatio`` = messages / destination peers."""
        if self.destination_peers == 0:
            return 0.0
        return self.messages / self.destination_peers

    def incre_ratio(self, log_n: float) -> float:
        """``IncreRatio`` = (messages - logN) / (destination peers - 1)."""
        if self.destination_peers <= 1:
            return 0.0
        return (self.messages - log_n) / (self.destination_peers - 1)


class RangeQueryScheme(abc.ABC):
    """A general range-query scheme layered over some DHT."""

    #: short name used in tables and figures
    name: str = "scheme"
    #: True when the scheme supports multi-attribute queries
    supports_multi_attribute: bool = False
    #: degree of the underlying DHT ("O(logN)" or a constant), for Table 1
    underlying_degree: str = "-"
    #: True when the paper classifies the scheme as delay-bounded
    delay_bounded: bool = False

    @abc.abstractmethod
    def build(self, num_peers: int, seed: int) -> None:
        """Construct the overlay with ``num_peers`` peers."""

    @abc.abstractmethod
    def load(self, values: Sequence[float]) -> None:
        """Publish one single-attribute object per value."""

    @abc.abstractmethod
    def query(self, low: float, high: float) -> QueryMeasurement:
        """Run a single-attribute range query from a random origin."""

    def load_multi(self, tuples: Sequence[Tuple[float, ...]]) -> None:
        """Publish multi-attribute objects (only if supported)."""
        raise NotImplementedError(f"{self.name} does not support multi-attribute data")

    def query_multi(self, ranges: Sequence[Tuple[float, float]]) -> QueryMeasurement:
        """Run a multi-attribute range query (only if supported)."""
        raise NotImplementedError(f"{self.name} does not support multi-attribute queries")

    @property
    @abc.abstractmethod
    def size(self) -> int:
        """Number of peers in the overlay."""

    def log_size(self) -> float:
        """``log2`` of the overlay size."""
        import math

        return math.log2(self.size) if self.size else 0.0

    def describe(self) -> dict:
        """Static description used by the Table 1 emitter."""
        return {
            "scheme": self.name,
            "degree": self.underlying_degree,
            "single_attribute": True,
            "multi_attribute": self.supports_multi_attribute,
            "delay_bounded": self.delay_bounded,
        }


def normalise(value: float, low: float, high: float) -> float:
    """Map ``value`` from ``[low, high]`` into ``[0, 1)`` (clamped)."""
    if high <= low:
        raise ValueError("empty attribute interval")
    fraction = (value - low) / (high - low)
    return min(max(fraction, 0.0), 1.0 - 1e-12)


@dataclass
class AttributeSpace:
    """The attribute interval shared by all schemes in one experiment."""

    low: float = 0.0
    high: float = 1000.0

    def normalise(self, value: float) -> float:
        """Value mapped into ``[0, 1)``."""
        return normalise(value, self.low, self.high)

    def clamp(self, value: float) -> float:
        """Value clamped into the interval."""
        return min(self.high, max(self.low, value))

    def span(self) -> float:
        """Width of the interval."""
        return self.high - self.low


def record_query(
    delay_hops: int,
    messages: int,
    destinations: int,
    matches: Optional[List[float]] = None,
) -> QueryMeasurement:
    """Small helper so schemes build measurements uniformly."""
    return QueryMeasurement(
        delay_hops=int(delay_hops),
        messages=int(messages),
        destination_peers=int(destinations),
        matches=list(matches) if matches is not None else [],
    )
