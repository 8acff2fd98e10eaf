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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.metrics import SummaryStats, safe_ratio


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


@dataclass
class WorkloadReport:
    """Outcome of a batched (possibly concurrent) query workload.

    ``measurements`` are in submission order; ``latencies`` are per-query
    sojourn times in simulated time units (for schemes without a
    message-level simulation these equal the hop delay — an infinite-server
    approximation with one time unit per hop); ``makespan`` spans the first
    arrival to the last completion.
    """

    scheme: str
    measurements: List[QueryMeasurement] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    makespan: float = 0.0
    messages: int = 0

    @property
    def queries(self) -> int:
        """Number of completed queries."""
        return len(self.measurements)

    def throughput(self) -> float:
        """Completed queries per simulated time unit."""
        return safe_ratio(float(self.queries), self.makespan)

    def latency_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the sojourn latency."""
        stats = SummaryStats("latency")
        stats.extend(self.latencies)
        return stats.percentiles()

    def delay_percentiles(self) -> Dict[str, float]:
        """p50/p95/p99 of the hop delay."""
        stats = SummaryStats("delay")
        stats.extend(float(m.delay_hops) for m in self.measurements)
        return stats.percentiles()

    def mean_latency(self) -> float:
        """Mean sojourn latency."""
        return safe_ratio(sum(self.latencies), float(len(self.latencies)))


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

    def run_workload(
        self,
        queries: Sequence[Tuple[float, float]],
        arrivals: Optional[Sequence[float]] = None,
    ) -> WorkloadReport:
        """Run a batch of ``(low, high)`` queries as overlapping in-flight work.

        The base implementation is a *flow-level* simulation: each query's
        routing is computed by :meth:`query` and the query is modelled as
        occupying the timeline from its arrival until ``arrival +
        delay_hops`` (one simulated time unit per hop, no queueing).  When
        ``arrivals`` is omitted the batch runs closed-loop back-to-back.
        Message-level concurrent execution (Armada only) is
        :class:`repro.engine.QueryEngine`'s job, not a scheme's.
        """
        if arrivals is not None and len(arrivals) != len(queries):
            raise ValueError("arrivals and queries must have equal length")
        measurements = [self.query(low, high) for low, high in queries]
        latencies = [float(m.delay_hops) for m in measurements]
        if not measurements:
            return WorkloadReport(scheme=self.name)
        if arrivals is None:
            makespan = sum(latencies)
        else:
            first = min(arrivals)
            last = max(arrival + latency for arrival, latency in zip(arrivals, latencies))
            makespan = max(0.0, last - first)
        return WorkloadReport(
            scheme=self.name,
            measurements=measurements,
            latencies=latencies,
            makespan=makespan,
            messages=sum(m.messages for m in measurements),
        )

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
