"""Robustness and determinism integration tests.

The simulator is deterministic by construction (seeded RNG streams, ordered
event processing); these tests pin that down, and use the overlay's fault
injection hook to check that message loss degrades results in the expected
way (queries lose destinations but never crash or return wrong extras).
"""

from __future__ import annotations

import pytest

from repro.core.armada import ArmadaSystem
from repro.experiments import figures_rangesize
from repro.experiments.common import ExperimentConfig
from repro.sim.rng import DeterministicRNG
from repro.workloads.values import uniform_values


class TestDeterminism:
    def test_same_seed_same_query_measurements(self):
        def run_once():
            system = ArmadaSystem(num_peers=150, seed=77, attribute_interval=(0.0, 1000.0))
            values = uniform_values(DeterministicRNG(77).substream("values"), 900, 0.0, 1000.0)
            system.insert_many(values)
            outcomes = []
            for low in (10.0, 200.0, 480.0, 730.0):
                result = system.range_query(low, low + 50.0, origin=system.network.peer_ids()[0])
                outcomes.append(
                    (result.delay_hops, result.messages, result.destination_count,
                     tuple(sorted(result.matching_values())))
                )
            return outcomes

        assert run_once() == run_once()

    def test_experiment_rows_are_reproducible(self):
        config = ExperimentConfig(
            peers=120,
            queries_per_point=10,
            objects=200,
            range_sizes=(10, 100),
            network_sizes=(60,),
        )
        first = figures_rangesize.run(config)
        second = figures_rangesize.run(config)
        assert [row.as_dict() for row in first.pira_rows] == [
            row.as_dict() for row in second.pira_rows
        ]
        assert [row.as_dict() for row in first.dcf_rows] == [
            row.as_dict() for row in second.dcf_rows
        ]


class TestFaultInjection:
    @pytest.fixture()
    def lossy_system(self):
        system = ArmadaSystem(num_peers=120, seed=88, attribute_interval=(0.0, 1000.0))
        values = uniform_values(DeterministicRNG(88).substream("values"), 800, 0.0, 1000.0)
        system.insert_many(values)
        return system, values

    def test_dropping_all_query_messages_isolates_the_origin(self, lossy_system, drop_when):
        system, _values = lossy_system
        injector = drop_when(system.overlay, lambda message: message.kind == "pira")
        result = system.range_query(100.0, 300.0)
        # Only destinations reachable with zero messages (the origin itself)
        # can be found; nothing breaks.
        assert result.destination_count <= 1
        injector.uninstall()

    def test_partial_loss_returns_subset_never_garbage(self, lossy_system, drop_when):
        system, values = lossy_system
        full = system.range_query(100.0, 300.0)
        counter = {"count": 0}

        def drop_every_third(message):
            counter["count"] += 1
            return counter["count"] % 3 == 0

        injector = drop_when(system.overlay, drop_every_third)
        degraded = system.range_query(100.0, 300.0)
        injector.uninstall()

        expected = {v for v in values if 100.0 <= v <= 300.0}
        assert set(degraded.matching_values()) <= expected
        assert set(degraded.destinations) <= set(full.destinations)
        assert degraded.destination_count <= full.destination_count

    def test_recovery_after_loss_stops(self, lossy_system, drop_when):
        system, values = lossy_system
        injector = drop_when(system.overlay, lambda message: True)
        system.range_query(100.0, 300.0)
        injector.uninstall()
        result = system.range_query(100.0, 300.0)
        expected = sorted(v for v in values if 100.0 <= v <= 300.0)
        assert sorted(result.matching_values()) == expected
