"""Section 4.3.2 analytic claims, checked empirically.

The paper derives three properties of PIRA:

* maximum query delay below ``2 log N`` (delay-boundedness),
* average query delay below ``log N``,
* average message cost about ``log N + 2n - 2`` where ``n`` is the number of
  destination peers, close to the ``O(log N) + n - 1`` lower bound.

This experiment is one sweep grid (:func:`preset`: PIRA at every network
size, at the fixed and at the largest range size) and reports, for each
point, the measured quantities next to the analytic expressions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List

from repro.analysis.tables import format_table
from repro.experiments.common import ExperimentConfig
from repro.experiments.orchestrator import SweepSpec, run_sweep


@dataclass
class AnalyticPoint:
    """Measured vs predicted metrics for one (network size, range size) point."""

    network_size: int
    range_size: float
    log_n: float
    avg_delay: float
    max_delay: float
    avg_messages: float
    avg_destinations: float

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "AnalyticPoint":
        """The point of one sweep record (it carries every field by name)."""
        return cls(**{f.name: record[f.name] for f in fields(cls)})

    @property
    def predicted_messages(self) -> float:
        """The ``log N + 2n - 2`` message-cost prediction."""
        return self.log_n + 2 * self.avg_destinations - 2

    @property
    def lower_bound_messages(self) -> float:
        """The ``log N + n - 1`` message-cost lower bound."""
        return self.log_n + self.avg_destinations - 1

    @property
    def delay_bounded(self) -> bool:
        """True when the measured maximum delay stays below ``2 log N``."""
        return self.max_delay <= 2 * self.log_n

    @property
    def average_below_log_n(self) -> bool:
        """True when the measured average delay stays below ``log N``."""
        return self.avg_delay <= self.log_n

    @property
    def message_prediction_error(self) -> float:
        """Relative error of the ``log N + 2n - 2`` message-cost prediction."""
        if self.predicted_messages == 0:
            return 0.0
        return abs(self.avg_messages - self.predicted_messages) / self.predicted_messages


@dataclass
class AnalyticsResult:
    """All measured points of the analytic-claims experiment."""

    records: List[Dict[str, Any]]
    points: List[AnalyticPoint] = field(init=False)

    def __post_init__(self) -> None:
        self.points = [AnalyticPoint.from_record(record) for record in self.records]

    def all_delay_bounded(self) -> bool:
        """True when every point respects the ``2 log N`` bound."""
        return all(point.delay_bounded for point in self.points)

    def worst_message_error(self) -> float:
        """Largest relative error of the message-cost prediction."""
        if not self.points:
            return 0.0
        return max(point.message_prediction_error for point in self.points)

    def format(self) -> str:
        """Render the comparison table."""
        headers = [
            "peers",
            "range",
            "logN",
            "2logN",
            "avg delay",
            "max delay",
            "avg msgs",
            "logN+2n-2",
            "lower bound",
            "avg destpeers",
        ]
        rows = []
        for point in self.points:
            rows.append(
                [
                    point.network_size,
                    point.range_size,
                    point.log_n,
                    2 * point.log_n,
                    point.avg_delay,
                    point.max_delay,
                    point.avg_messages,
                    point.predicted_messages,
                    point.lower_bound_messages,
                    point.avg_destinations,
                ]
            )
        return format_table(headers, rows, title="Section 4.3.2: analytic claims vs measurements")


def preset(config: ExperimentConfig) -> SweepSpec:
    """PIRA at every network size, at the fixed and at the largest range size."""
    return SweepSpec.from_config(
        config,
        schemes=("armada",),
        network_sizes=config.network_sizes,
        range_sizes=(config.fixed_range_size, max(config.range_sizes)),
    )


def run(config: ExperimentConfig) -> AnalyticsResult:
    """Measure PIRA against the analytic expressions across both sweeps."""
    return AnalyticsResult(run_sweep(preset(config)).records)
