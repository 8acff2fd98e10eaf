"""Property-based tests for PIRA / MIRA query processing invariants.

These drive the full system (random topology, random data, random query) and
assert the paper's key guarantees: exact results, exactly the intersecting
destination peers, and the 2*logN delay bound.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.armada import ArmadaSystem
from repro.sim.rng import DeterministicRNG

_SYSTEM_CACHE = {}


def get_system(seed: int) -> ArmadaSystem:
    """Build (and cache) a small system with data for a topology seed."""
    if seed not in _SYSTEM_CACHE:
        system = ArmadaSystem(num_peers=48 + 8 * seed, seed=seed, attribute_interval=(0.0, 1000.0))
        rng = DeterministicRNG(seed).substream("prop-values")
        values = [rng.uniform(0.0, 1000.0) for _ in range(400)]
        system.insert_many(values)
        system.prop_values = values  # type: ignore[attr-defined]
        _SYSTEM_CACHE[seed] = system
    return _SYSTEM_CACHE[seed]


query_bounds = st.tuples(
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
)


class TestPiraProperties:
    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=3), query_bounds)
    def test_results_are_exact(self, topology_seed, bounds):
        system = get_system(topology_seed)
        low, high = min(bounds), max(bounds)
        result = system.range_query(low, high)
        expected = sorted(v for v in system.prop_values if low <= v <= high)
        assert sorted(result.matching_values()) == expected

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=3), query_bounds)
    def test_destinations_are_exactly_the_intersecting_peers(self, topology_seed, bounds):
        system = get_system(topology_seed)
        low, high = min(bounds), max(bounds)
        result = system.range_query(low, high)
        assert set(result.destinations) == system.pira.ground_truth_destinations([(low, high)])

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=3), query_bounds)
    def test_delay_is_bounded(self, topology_seed, bounds):
        system = get_system(topology_seed)
        low, high = min(bounds), max(bounds)
        result = system.range_query(low, high)
        assert result.delay_hops <= 2 * math.log2(system.size) + 1

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=3), query_bounds)
    def test_each_destination_receives_one_result_record(self, topology_seed, bounds):
        system = get_system(topology_seed)
        low, high = min(bounds), max(bounds)
        result = system.range_query(low, high)
        # hop counts recorded per destination are within the FRT height
        assert all(0 <= hop <= len(result.origin) for hop in result.destinations.values())
        # messages are at least destinations - 1 (a tree needs that many edges)
        assert result.messages >= max(0, result.destination_count - 1)


_MULTI_CACHE = {}


def get_multi_system(seed: int) -> ArmadaSystem:
    if seed not in _MULTI_CACHE:
        system = ArmadaSystem(
            num_peers=48,
            seed=seed + 100,
            attribute_interval=(0.0, 100.0),
            attribute_intervals=((0.0, 100.0), (0.0, 100.0)),
        )
        rng = DeterministicRNG(seed).substream("prop-multi")
        records = [(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(250)]
        for record in records:
            system.insert_multi(record, payload=record)
        system.prop_records = records  # type: ignore[attr-defined]
        _MULTI_CACHE[seed] = system
    return _MULTI_CACHE[seed]


box_bounds = st.tuples(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
)


class TestMiraProperties:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2), box_bounds)
    def test_results_are_exact(self, topology_seed, bounds):
        system = get_multi_system(topology_seed)
        ranges = [
            (min(bounds[0], bounds[1]), max(bounds[0], bounds[1])),
            (min(bounds[2], bounds[3]), max(bounds[2], bounds[3])),
        ]
        result = system.multi_range_query(ranges)
        expected = sorted(
            record
            for record in system.prop_records
            if all(low <= value <= high for value, (low, high) in zip(record, ranges))
        )
        assert sorted(tuple(stored.key) for stored in result.matches) == expected

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.integers(min_value=0, max_value=2), box_bounds)
    def test_delay_is_bounded(self, topology_seed, bounds):
        system = get_multi_system(topology_seed)
        ranges = [
            (min(bounds[0], bounds[1]), max(bounds[0], bounds[1])),
            (min(bounds[2], bounds[3]), max(bounds[2], bounds[3])),
        ]
        result = system.multi_range_query(ranges)
        assert result.delay_hops <= 2 * math.log2(system.size) + 1
