"""Ablation: how much does PIRA's pruning actually save?

The design decision DESIGN.md calls out is the FRT pruning predicate
("forward only to out-neighbours whose descendants can still own region
ObjectIDs").  This experiment removes it: an *unpruned* descent forwards to
every out-neighbour down to the destination level, still de-duplicating at
receivers, and still answering only at destination peers.  Both variants
return exactly the same results; the difference is the message cost (the
unpruned variant touches essentially the whole network) and, slightly, the
delay.  This quantifies the value of the paper's central mechanism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.analysis.stats import aggregate_measurements
from repro.analysis.tables import format_table
from repro.core.armada import ArmadaSystem
from repro.core.frt import destination_level
from repro.experiments.common import ExperimentConfig, make_values
from repro.rangequery.base import QueryMeasurement, record_query
from repro.sim.rng import DeterministicRNG
from repro.workloads.queries import RangeQueryWorkload


def unpruned_descent(
    system: ArmadaSystem, origin: str, low: float, high: float
) -> QueryMeasurement:
    """Forward to *all* out-neighbours down to the destination level."""
    network = system.network
    region = system.single_namer.region_for_range(low, high)
    messages = 0
    destinations: Dict[str, int] = {}
    for subregion in region.split_by_first_symbol():
        dest_level = destination_level(origin, subregion)
        visited: Set[Tuple[str, int]] = set()
        frontier: List[Tuple[str, int]] = [(origin, 0)]
        level = 0
        while frontier and level < dest_level:
            next_frontier: List[Tuple[str, int]] = []
            for peer_id, hop in frontier:
                for neighbor in network.out_neighbors(peer_id):
                    messages += 1
                    occurrence = (neighbor, level + 1)
                    if occurrence in visited:
                        continue
                    visited.add(occurrence)
                    next_frontier.append((neighbor, hop + 1))
            frontier = next_frontier
            level += 1
        for peer_id, hop in frontier:
            if subregion.contains_prefix(peer_id):
                previous = destinations.get(peer_id)
                if previous is None or hop < previous:
                    destinations[peer_id] = hop
    delay = max(destinations.values()) if destinations else 0
    return record_query(delay, messages, len(destinations))


@dataclass
class AblationPoint:
    """PIRA vs the unpruned descent for one range size."""

    range_size: float
    pira_messages: float
    unpruned_messages: float
    pira_delay: float
    unpruned_delay: float
    same_destinations: bool

    @property
    def message_savings(self) -> float:
        """Factor by which pruning reduces the message cost."""
        if self.pira_messages == 0:
            return 0.0
        return self.unpruned_messages / self.pira_messages


@dataclass
class AblationResult:
    """All ablation points."""

    network_size: int = 0
    points: List[AblationPoint] = field(default_factory=list)

    def format(self) -> str:
        """Render the ablation table."""
        headers = [
            "range size",
            "PIRA msgs",
            "unpruned msgs",
            "savings x",
            "PIRA delay",
            "unpruned delay",
            "same dests",
        ]
        rows = [
            [
                point.range_size,
                point.pira_messages,
                point.unpruned_messages,
                point.message_savings,
                point.pira_delay,
                point.unpruned_delay,
                point.same_destinations,
            ]
            for point in self.points
        ]
        return format_table(
            headers, rows, title=f"Ablation: PIRA pruning vs unpruned FRT descent (N={self.network_size})"
        )


def run(config: ExperimentConfig, queries_per_point: int = 20) -> AblationResult:
    """Compare PIRA with the unpruned descent across the configured range sizes."""
    system = ArmadaSystem(
        num_peers=config.peers,
        seed=config.seed,
        attribute_interval=(config.attribute_low, config.attribute_high),
        object_id_length=config.object_id_length,
    )
    system.insert_many(make_values(config))
    result = AblationResult(network_size=system.size)

    for range_size in config.range_sizes:
        workload = RangeQueryWorkload(
            range_size=range_size,
            low=config.attribute_low,
            high=config.attribute_high,
            count=queries_per_point,
        )
        rng = DeterministicRNG(config.seed).substream("ablation", range_size)
        pira: List[QueryMeasurement] = []
        unpruned: List[QueryMeasurement] = []
        for low, high in workload.queries(rng):
            origin = system.random_peer_id()
            outcome = system.range_query(low, high, origin=origin)
            pira.append(
                record_query(outcome.delay_hops, outcome.messages, outcome.destination_count)
            )
            unpruned.append(unpruned_descent(system, origin, low, high))
        pira_row = aggregate_measurements("PIRA", float(range_size), pira, system.size)
        unpruned_row = aggregate_measurements("unpruned", float(range_size), unpruned, system.size)
        result.points.append(
            AblationPoint(
                range_size=pira_row.x_value,
                pira_messages=pira_row.avg_messages,
                unpruned_messages=unpruned_row.avg_messages,
                pira_delay=pira_row.avg_delay,
                unpruned_delay=unpruned_row.avg_delay,
                same_destinations=all(
                    a.destination_peers == b.destination_peers for a, b in zip(pira, unpruned)
                ),
            )
        )
    return result
