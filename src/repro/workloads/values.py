"""Attribute-value generators.

The paper publishes objects with attribute values drawn from ``[0, 1000]``.
Besides the uniform distribution used in the simulations, a truncated
normal generator feeds the student-score dataset.
"""

from __future__ import annotations

import math
from typing import List

from repro.sim.rng import DeterministicRNG


def uniform_values(rng: DeterministicRNG, count: int, low: float = 0.0, high: float = 1000.0) -> List[float]:
    """``count`` values uniform over ``[low, high]``."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if high < low:
        raise ValueError("empty interval")
    return [rng.uniform(low, high) for _ in range(count)]


def normal_values(
    rng: DeterministicRNG,
    count: int,
    mean: float = 500.0,
    stddev: float = 150.0,
    low: float = 0.0,
    high: float = 1000.0,
) -> List[float]:
    """``count`` values from a normal distribution truncated to ``[low, high]``.

    Sampling uses the Box-Muller transform on the deterministic stream so the
    workload stays reproducible.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    values: List[float] = []
    while len(values) < count:
        u1 = max(rng.random(), 1e-12)
        u2 = rng.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        value = mean + stddev * z
        if low <= value <= high:
            values.append(value)
    return values
