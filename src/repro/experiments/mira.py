"""Section 5: MIRA multi-attribute range queries.

The paper only states MIRA's properties (delay below the FRT height, hence
below ``2 log N`` worst case and ``log N`` on average, regardless of the
query-space size); there is no multi-attribute figure.  This experiment makes
the claim measurable: 2- and 3-attribute workloads are published, boxes of
several selectivities are queried, and the measured delays are compared with
the bounds.  Result completeness is checked against a brute-force oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.analysis.stats import aggregate_measurements
from repro.analysis.tables import format_table
from repro.core.armada import ArmadaSystem
from repro.experiments.common import ExperimentConfig
from repro.rangequery.base import QueryMeasurement, record_query
from repro.sim.rng import DeterministicRNG
from repro.workloads.queries import MultiAttributeQueryWorkload


@dataclass
class MiraPoint:
    """Aggregated measurements for one (attribute count, box size) setting."""

    attributes: int
    range_size: float
    network_size: int
    log_n: float
    avg_delay: float
    max_delay: float
    avg_messages: float
    avg_destinations: float
    complete: bool

    @property
    def delay_bounded(self) -> bool:
        """True when the worst observed delay stays below ``2 log N``."""
        return self.max_delay <= 2 * self.log_n

    @property
    def average_below_log_n(self) -> bool:
        """True when the average delay stays below ``log N``."""
        return self.avg_delay <= self.log_n


@dataclass
class MiraResult:
    """All measured MIRA points."""

    points: List[MiraPoint] = field(default_factory=list)

    def all_delay_bounded(self) -> bool:
        """True when every point respects the ``2 log N`` bound."""
        return all(point.delay_bounded for point in self.points)

    def all_complete(self) -> bool:
        """True when every query returned exactly the matching objects."""
        return all(point.complete for point in self.points)

    def format(self) -> str:
        """Render the MIRA table."""
        headers = [
            "attrs",
            "box size",
            "peers",
            "logN",
            "avg delay",
            "max delay",
            "avg msgs",
            "avg destpeers",
            "complete",
        ]
        rows = [
            [
                point.attributes,
                point.range_size,
                point.network_size,
                point.log_n,
                point.avg_delay,
                point.max_delay,
                point.avg_messages,
                point.avg_destinations,
                point.complete,
            ]
            for point in self.points
        ]
        return format_table(headers, rows, title="Section 5: MIRA multi-attribute range queries")


def run(
    config: ExperimentConfig,
    attribute_counts: Sequence[int] = (2, 3),
    box_sizes: Sequence[float] = (20.0, 100.0, 300.0),
) -> MiraResult:
    """Measure MIRA for several attribute counts and query-box sizes."""
    result = MiraResult()
    for attributes in attribute_counts:
        intervals: List[Tuple[float, float]] = [
            (config.attribute_low, config.attribute_high) for _ in range(attributes)
        ]
        system = ArmadaSystem(
            num_peers=config.peers,
            seed=config.seed,
            attribute_interval=(config.attribute_low, config.attribute_high),
            attribute_intervals=intervals,
            object_id_length=config.object_id_length,
        )
        data_rng = DeterministicRNG(config.seed).substream("mira-values", attributes)
        records: List[Tuple[float, ...]] = []
        for _ in range(config.objects):
            values = tuple(
                data_rng.uniform(config.attribute_low, config.attribute_high)
                for _ in range(attributes)
            )
            system.insert_multi(values, payload=values)
            records.append(values)

        for box_size in box_sizes:
            workload = MultiAttributeQueryWorkload(
                range_sizes=[box_size] * attributes,
                intervals=intervals,
                count=max(10, config.queries_per_point // 4),
            )
            query_rng = DeterministicRNG(config.seed).substream("mira-queries", attributes, box_size)
            measurements: List[QueryMeasurement] = []
            complete = True
            for box in workload.queries(query_rng):
                outcome = system.multi_range_query(box)
                measurements.append(
                    record_query(outcome.delay_hops, outcome.messages, outcome.destination_count)
                )
                expected = sorted(
                    record
                    for record in records
                    if all(low <= value <= high for value, (low, high) in zip(record, box))
                )
                got = sorted(tuple(stored.key) for stored in outcome.matches)
                if got != expected:
                    complete = False
            row = aggregate_measurements("MIRA", float(box_size), measurements, system.size)
            result.points.append(
                MiraPoint(
                    attributes=attributes,
                    range_size=row.x_value,
                    network_size=system.size,
                    log_n=row.log_n,
                    avg_delay=row.avg_delay,
                    max_delay=row.max_delay,
                    avg_messages=row.avg_messages,
                    avg_destinations=row.avg_destinations,
                    complete=complete,
                )
            )
    return result
