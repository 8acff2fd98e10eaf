"""Summary statistics for overlay experiments.

The paper reports, for each experiment point, averages over 1000 random
queries of: query delay (hops), total messages, destination peers, and two
derived ratios (``MesgRatio`` and ``IncreRatio``).  :class:`SummaryStats`
accumulates a stream of samples and exposes the summary values the
experiments need.  The overlay counts its messages in plain int fields (see
:class:`~repro.sim.network.OverlayNetwork`); the program's one metrics
registry is :class:`repro.obs.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List


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
        """Arithmetic mean (0.0 when empty), within ``[minimum, maximum]``."""
        return mean(self._samples)

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


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean of an iterable (0.0 when empty).

    Never outside the samples' range: a rounded sum divided by the count can
    land one unit in the last place past an extreme (three copies of
    ``11.477441829601656`` sum and divide to just below it), so the quotient
    is clamped to ``[min, max]``.
    """
    values = list(values)
    if not values:
        return 0.0
    return min(max(sum(values) / len(values), min(values)), max(values))


def safe_ratio(numerator: float, denominator: float, default: float = 0.0) -> float:
    """``numerator / denominator`` guarding against a zero denominator."""
    if denominator == 0:
        return default
    return numerator / denominator
