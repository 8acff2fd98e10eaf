"""Seeded random-source helpers.

Every stochastic component of the simulator (workload generation, join order,
query origin selection, ...) draws from a :class:`DeterministicRNG` derived
from a single experiment seed, so that every figure in EXPERIMENTS.md can be
regenerated bit-for-bit.
"""

from __future__ import annotations

import hashlib
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, *components: object) -> int:
    """Derive a child seed from ``base_seed`` and a sequence of labels.

    The derivation is stable across runs and Python versions (it uses SHA-256
    rather than ``hash``, which is salted per-process).

    >>> derive_seed(42, "join-order") == derive_seed(42, "join-order")
    True
    >>> derive_seed(42, "join-order") != derive_seed(42, "queries")
    True
    """
    digest = hashlib.sha256()
    digest.update(str(base_seed).encode("utf-8"))
    for component in components:
        digest.update(b"\x1f")
        digest.update(repr(component).encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


class DeterministicRNG:
    """Thin wrapper over :class:`random.Random` with namespaced sub-streams."""

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._random = random.Random(seed)

    @property
    def seed(self) -> int:
        """Seed this stream was created with."""
        return self._seed

    def substream(self, *components: object) -> "DeterministicRNG":
        """Return an independent stream derived from this one."""
        return DeterministicRNG(derive_seed(self._seed, *components))

    def random(self) -> float:
        """Uniform float in ``[0, 1)``."""
        return self._random.random()

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in ``[low, high]``."""
        return self._random.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """Uniformly chosen element of ``items``."""
        return self._random.choice(items)

    def sample(self, items: Sequence[T], count: int) -> List[T]:
        """``count`` distinct elements sampled without replacement."""
        return self._random.sample(items, count)

    def shuffle(self, items: List[T]) -> None:
        """Shuffle ``items`` in place."""
        self._random.shuffle(items)

    def zipf(self, alpha: float, max_rank: int) -> int:
        """Draw a rank in ``[1, max_rank]`` from a truncated Zipf distribution."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if max_rank < 1:
            raise ValueError("max_rank must be at least 1")
        weights = [1.0 / (rank ** alpha) for rank in range(1, max_rank + 1)]
        total = sum(weights)
        target = self._random.random() * total
        cumulative = 0.0
        for rank, weight in enumerate(weights, start=1):
            cumulative += weight
            if target <= cumulative:
                return rank
        return max_rank

    def exponential(self, mean: float) -> float:
        """Exponentially distributed float with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be positive")
        return self._random.expovariate(1.0 / mean)
