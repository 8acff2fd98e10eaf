"""Shared experiment configuration and driver helpers.

Every experiment driver — the sweep orchestrator behind the figures, the
concurrent load sweep and the table / ablation / MIRA modules — is built
from the same three ingredients defined here:

* :class:`ExperimentConfig`, the frozen parameter record (it is pickled
  into sweep jobs, so keep its fields plain values);
* :func:`make_values` / :func:`build_and_load`, the deterministic
  construction of published values and overlays; and
* :func:`run_scheme_queries`, the per-point query batch whose RNG
  substream is keyed by scheme and x-value so that adding or reordering
  points never shifts another point's draws.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Sequence, Tuple

from repro.analysis.stats import AggregateRow, aggregate_measurements
from repro.rangequery.base import AttributeSpace, RangeQueryScheme
from repro.sim.rng import DeterministicRNG
from repro.workloads.queries import RangeQueryWorkload
from repro.workloads.values import uniform_values


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters shared by the experiment sweeps.

    The defaults reproduce the paper's setup (attribute interval
    ``[0, 1000]``, 2000 peers for the range-size sweep, network sizes 1000
    to 8000, range size 20 for the network-size sweep) but with fewer
    queries per point than the paper's 1000 so the default run finishes in
    seconds; :meth:`paper` restores the full query count.
    """

    peers: int = 2000
    queries_per_point: int = 200
    objects: int = 4000
    seed: int = 42
    attribute_low: float = 0.0
    attribute_high: float = 1000.0
    range_sizes: Tuple[float, ...] = (2, 10, 50, 100, 150, 200, 250, 300)
    network_sizes: Tuple[int, ...] = (1000, 2000, 3000, 4000, 5000, 6000, 7000, 8000)
    fixed_range_size: float = 20.0
    object_id_length: int = 32

    def __post_init__(self) -> None:
        if self.peers < 3 or any(size < 3 for size in self.network_sizes):
            raise ValueError("every network needs at least 3 peers")
        if self.queries_per_point < 1:
            raise ValueError("need at least one query per point")
        if self.objects < 0:
            raise ValueError("objects must be non-negative")
        if any(size < 0 for size in self.range_sizes):
            raise ValueError("range sizes must be non-negative")

    @property
    def space(self) -> AttributeSpace:
        """The attribute space shared by every scheme."""
        return AttributeSpace(self.attribute_low, self.attribute_high)

    @classmethod
    def quick(cls) -> "ExperimentConfig":
        """A configuration small enough for unit tests and CI smoke runs."""
        return cls(
            peers=400,
            queries_per_point=30,
            objects=800,
            range_sizes=(2, 50, 150, 300),
            network_sizes=(200, 400, 800),
            fixed_range_size=20.0,
        )

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's full setup (1000 queries per point)."""
        return cls(queries_per_point=1000)

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        """A copy with some fields replaced."""
        return replace(self, **kwargs)


def make_values(config: ExperimentConfig) -> List[float]:
    """The published attribute values (uniform over the attribute interval)."""
    rng = DeterministicRNG(config.seed).substream("values")
    return uniform_values(rng, config.objects, config.attribute_low, config.attribute_high)


def run_scheme_queries(
    scheme: RangeQueryScheme,
    config: ExperimentConfig,
    range_size: float,
    x_value: float,
) -> AggregateRow:
    """Run ``queries_per_point`` random queries of one range size on a built scheme.

    ``x_value`` is the point's position on its x-axis; together with
    ``scheme.name`` it keys the ``"queries"`` RNG substream, so every
    (scheme, point) pair draws an independent, reproducible query batch.
    """
    workload = RangeQueryWorkload(
        range_size=range_size,
        low=config.attribute_low,
        high=config.attribute_high,
        count=config.queries_per_point,
    )
    rng = DeterministicRNG(config.seed).substream("queries", scheme.name, x_value)
    measurements = [scheme.query(low, high) for low, high in workload.queries(rng)]
    return aggregate_measurements(scheme.name, x_value, measurements, scheme.size)


def build_and_load(
    scheme_factory: Callable[[], RangeQueryScheme],
    config: ExperimentConfig,
    num_peers: int,
    values: Sequence[float],
) -> RangeQueryScheme:
    """Construct a scheme, build its overlay and publish the values.

    The overlay is built from ``config.seed`` alone, so two calls with the
    same config, peer count and values produce structurally identical
    overlays — the property the sweep orchestrator relies on when it
    rebuilds schemes inside worker processes.
    """
    scheme = scheme_factory()
    scheme.build(num_peers, seed=config.seed)
    scheme.load(list(values))
    return scheme
