"""Counters and summary statistics for overlay experiments.

The paper reports, for each experiment point, averages over 1000 random
queries of: query delay (hops), total messages, destination peers, and two
derived ratios (``MesgRatio`` and ``IncreRatio``).  :class:`SummaryStats`
accumulates a stream of samples and exposes the summary values the
experiments need; :class:`MetricsRegistry` groups named counters and summary
series for one simulation run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional


@dataclass(slots=True)
class Counter:
    """A monotonically increasing named counter."""

    name: str
    value: int = 0

    def increment(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only increase; use a gauge for decrements")
        self.value += amount

    def reset(self) -> None:
        """Reset the counter to zero."""
        self.value = 0


class SummaryStats:
    """Streaming summary of a series of numeric samples.

    Keeps count, mean, min, max and an exact list of samples (experiments in
    this repository are small enough that storing samples is fine and allows
    exact percentiles).
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[float] = []

    def add(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        """Record many samples."""
        for value in values:
            self.add(value)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return sum(self._samples) / len(self._samples)

    @property
    def minimum(self) -> float:
        """Smallest sample (0.0 when empty)."""
        return min(self._samples) if self._samples else 0.0

    @property
    def maximum(self) -> float:
        """Largest sample (0.0 when empty)."""
        return max(self._samples) if self._samples else 0.0

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self._samples)

    @property
    def stddev(self) -> float:
        """Population standard deviation (0.0 for fewer than two samples)."""
        if len(self._samples) < 2:
            return 0.0
        mean = self.mean
        variance = sum((sample - mean) ** 2 for sample in self._samples) / len(self._samples)
        return math.sqrt(variance)

    def percentile(self, fraction: float) -> float:
        """Exact percentile via the nearest-rank method.

        ``fraction`` is in ``[0, 1]``; e.g. ``percentile(0.99)`` is the p99.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, math.ceil(fraction * len(ordered)) - 1))
        return ordered[rank]

    def percentiles(self, fractions: Iterable[float] = (0.5, 0.95, 0.99)) -> Dict[str, float]:
        """Percentile bundle keyed ``p50``/``p95``/``p99`` style.

        >>> stats = SummaryStats(); stats.extend(range(1, 101))
        >>> stats.percentiles()
        {'p50': 50.0, 'p95': 95.0, 'p99': 99.0}
        """
        return {
            f"p{round(fraction * 100):d}": self.percentile(fraction)
            for fraction in fractions
        }

    @property
    def samples(self) -> List[float]:
        """Copy of the raw samples."""
        return list(self._samples)

    def merge(self, other: "SummaryStats") -> None:
        """Fold another summary's samples into this one."""
        self._samples.extend(other.samples)

    def as_dict(self) -> Dict[str, float]:
        """Summary values as a plain dictionary (handy for tables / JSON)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "stddev": self.stddev,
        }

    def __repr__(self) -> str:
        return (
            f"SummaryStats(name={self.name!r}, count={self.count}, mean={self.mean:.3f}, "
            f"min={self.minimum:.3f}, max={self.maximum:.3f})"
        )


@dataclass
class MetricsRegistry:
    """Named counters and summary series for one simulation run."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    summaries: Dict[str, SummaryStats] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        """Get (or create) the counter with the given name."""
        if name not in self.counters:
            self.counters[name] = Counter(name=name)
        return self.counters[name]

    def summary(self, name: str) -> SummaryStats:
        """Get (or create) the summary series with the given name."""
        if name not in self.summaries:
            self.summaries[name] = SummaryStats(name=name)
        return self.summaries[name]

    def counter_value(self, name: str, default: int = 0) -> int:
        """Current value of a counter, or ``default`` if it does not exist."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    def reset(self) -> None:
        """Reset all counters and drop all summaries."""
        for counter in self.counters.values():
            counter.reset()
        self.summaries.clear()

    def snapshot(self) -> Dict[str, float]:
        """Flat dictionary of all counter values and summary means."""
        snapshot: Dict[str, float] = {}
        for name, counter in self.counters.items():
            snapshot[f"counter.{name}"] = float(counter.value)
        for name, summary in self.summaries.items():
            snapshot[f"summary.{name}.mean"] = summary.mean
            snapshot[f"summary.{name}.max"] = summary.maximum
        return snapshot


class QueryTracker:
    """Tracks in-flight queries and their completion latencies.

    The concurrent query engine starts many overlapping queries on one
    simulator clock; this tracker records, per query, the simulation time at
    which it was started and completed, and accumulates sojourn latencies
    and hop delays into :class:`SummaryStats` series.  (Completion-driven
    behaviour such as closed-loop refill lives in the engine itself.)
    """

    def __init__(self, name: str = "queries") -> None:
        self.name = name
        self.latency = SummaryStats(f"{name}.latency")
        self.delay_hops = SummaryStats(f"{name}.delay_hops")
        self._started_at: Dict[object, float] = {}
        self._started = 0
        self._completed = 0
        self._succeeded = 0
        self._failed = 0
        self._first_start: Optional[float] = None
        self._last_completion: Optional[float] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self, query_key: object, time: float) -> None:
        """Record that ``query_key`` entered the system at ``time``."""
        if query_key in self._started_at:
            raise ValueError(f"query {query_key!r} already in flight")
        self._started_at[query_key] = time
        self._started += 1
        if self._first_start is None or time < self._first_start:
            self._first_start = time

    def complete(
        self,
        query_key: object,
        time: float,
        delay_hops: Optional[float] = None,
        success: Optional[bool] = None,
    ) -> float:
        """Record completion; returns the query's sojourn latency.

        ``success`` feeds the success-ratio accounting of the faults work:
        ``True``/``False`` classify the completion, ``None`` (the default)
        counts it as successful — the fault-free legacy behaviour.
        """
        try:
            started = self._started_at.pop(query_key)
        except KeyError as exc:
            raise ValueError(f"query {query_key!r} was never started") from exc
        latency = time - started
        self.latency.add(latency)
        if delay_hops is not None:
            self.delay_hops.add(delay_hops)
        self._completed += 1
        if success is None or success:
            self._succeeded += 1
        else:
            self._failed += 1
        if self._last_completion is None or time > self._last_completion:
            self._last_completion = time
        return latency

    # -- statistics ---------------------------------------------------------

    @property
    def started(self) -> int:
        """Queries started so far."""
        return self._started

    @property
    def completed(self) -> int:
        """Queries completed so far."""
        return self._completed

    @property
    def succeeded(self) -> int:
        """Completions classified successful (all of them when untracked)."""
        return self._succeeded

    @property
    def failed(self) -> int:
        """Completions classified failed (partial results, deadline expiry)."""
        return self._failed

    def success_ratio(self) -> float:
        """Successful completions over all completions (1.0 when idle)."""
        return safe_ratio(float(self._succeeded), float(self._completed), default=1.0)

    @property
    def in_flight(self) -> int:
        """Queries started but not yet completed."""
        return len(self._started_at)

    @property
    def makespan(self) -> float:
        """Simulated time from first start to last completion (0.0 when idle)."""
        if self._first_start is None or self._last_completion is None:
            return 0.0
        return max(0.0, self._last_completion - self._first_start)

    def throughput(self) -> float:
        """Completed queries per simulated time unit over the makespan."""
        return safe_ratio(float(self._completed), self.makespan)

    def as_dict(self) -> Dict[str, float]:
        """Flat summary (counts, throughput, latency percentiles)."""
        summary: Dict[str, float] = {
            "started": float(self._started),
            "completed": float(self._completed),
            "succeeded": float(self._succeeded),
            "failed": float(self._failed),
            "success_ratio": self.success_ratio(),
            "in_flight": float(self.in_flight),
            "makespan": self.makespan,
            "throughput": self.throughput(),
        }
        for key, value in self.latency.percentiles().items():
            summary[f"latency_{key}"] = value
        for key, value in self.delay_hops.percentiles().items():
            summary[f"delay_{key}"] = value
        return summary


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of an iterable (0.0 when empty)."""
    values = list(values)
    if not values:
        return 0.0
    return sum(values) / len(values)


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator`` guarding against a zero denominator."""
    if denominator == 0:
        return default
    return numerator / denominator


def log2_or_zero(value: float) -> float:
    """``log2(value)`` with a 0.0 guard for non-positive inputs."""
    if value <= 0:
        return 0.0
    return math.log2(value)
