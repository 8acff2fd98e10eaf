"""End-to-end integration tests across the whole stack.

These exercise the complete pipeline the examples use: build a network,
publish realistic datasets, run single- and multi-attribute queries, compare
against brute-force oracles, and check the paper's delay bounds -- including
under churn and with every baseline scheme on the same workload.
"""

from __future__ import annotations

import math

import pytest

from repro.core.armada import ArmadaSystem
from repro.rangequery import (
    ArmadaScheme,
    DcfCanScheme,
    PhtScheme,
    ScrapScheme,
    SkipGraphScheme,
    SquidScheme,
)
from repro.rangequery.base import AttributeSpace
from repro.sim.rng import DeterministicRNG
from repro.workloads.datasets import generate_grid_resources, generate_student_scores
from repro.workloads.queries import RangeQueryWorkload
from repro.workloads.values import uniform_values

from oracles import zipf_values


class TestScoreWorkflow:
    """The paper's "70 <= score <= 80" data-management workload."""

    @pytest.fixture(scope="class")
    def score_system(self):
        system = ArmadaSystem(num_peers=250, seed=101, attribute_interval=(0.0, 100.0))
        scores = generate_student_scores(DeterministicRNG(101).substream("scores"), 1500)
        for record in scores:
            system.insert(record.score, payload=record)
        return system, scores

    def test_score_band_query_is_exact(self, score_system):
        system, scores = score_system
        result = system.range_query(70.0, 80.0)
        expected = sorted(record.score for record in scores if 70.0 <= record.score <= 80.0)
        assert sorted(result.matching_values()) == expected
        assert all(70.0 <= stored.value.score <= 80.0 for stored in result.matches)

    def test_score_queries_are_delay_bounded(self, score_system):
        system, _scores = score_system
        bound = 2 * math.log2(system.size) + 1
        for low, high in ((0.0, 100.0), (95.0, 100.0), (49.9, 50.1)):
            assert system.range_query(low, high).delay_hops <= bound

    def test_skewed_data_still_exact(self):
        system = ArmadaSystem(num_peers=120, seed=103, attribute_interval=(0.0, 1000.0))
        values = zipf_values(DeterministicRNG(103).substream("zipf"), 2000, alpha=1.3)
        system.insert_many(values)
        result = system.range_query(0.0, 50.0)
        expected = sorted(v for v in values if v <= 50.0)
        assert sorted(result.matching_values()) == expected


class TestGridWorkflow:
    """The paper's grid-information-service multi-attribute workload."""

    @pytest.fixture(scope="class")
    def grid_system(self):
        intervals = ((0.0, 64.0), (0.0, 4000.0), (0.0, 5.0))
        system = ArmadaSystem(
            num_peers=200,
            seed=107,
            attribute_interval=(0.0, 4000.0),
            attribute_intervals=intervals,
        )
        machines = generate_grid_resources(DeterministicRNG(107).substream("grid"), 1000)
        for machine in machines:
            system.insert_multi(machine.as_tuple(), payload=machine)
        return system, machines

    def test_paper_example_query(self, grid_system):
        system, machines = grid_system
        # "1GB <= Memory <= 4GB and 50GB <= disk <= 200GB"
        ranges = [(1.0, 4.0), (50.0, 200.0), (0.0, 5.0)]
        result = system.multi_range_query(ranges)
        expected = sorted(
            machine.host
            for machine in machines
            if 1.0 <= machine.memory_gb <= 4.0 and 50.0 <= machine.disk_gb <= 200.0
        )
        assert sorted(stored.value.host for stored in result.matches) == expected

    def test_multi_attribute_delay_bound_for_any_selectivity(self, grid_system):
        system, _machines = grid_system
        bound = 2 * math.log2(system.size) + 1
        for ranges in (
            [(0.0, 64.0), (0.0, 4000.0), (0.0, 5.0)],
            [(32.0, 64.0), (1000.0, 4000.0), (3.5, 5.0)],
            [(0.0, 1.0), (0.0, 50.0), (0.0, 1.0)],
        ):
            assert system.multi_range_query(ranges).delay_hops <= bound


class TestChurnWorkflow:
    def test_queries_stay_exact_across_growth_and_shrink(self):
        system = ArmadaSystem(num_peers=100, seed=111, attribute_interval=(0.0, 1000.0))
        values = uniform_values(DeterministicRNG(111).substream("values"), 1500, 0.0, 1000.0)
        system.insert_many(values)

        def check():
            result = system.range_query(200.0, 420.0)
            expected = sorted(v for v in values if 200.0 <= v <= 420.0)
            assert sorted(result.matching_values()) == expected
            assert result.delay_hops <= 2 * math.log2(system.size) + 1

        check()
        system.add_peers(80)
        check()
        system.remove_peers(60)
        check()
        assert system.topology_report().healthy


class TestCrossSchemeAgreement:
    """Every scheme must return the same answers on the same workload."""

    def test_all_schemes_agree_on_results(self):
        space = AttributeSpace(0.0, 1000.0)
        values = uniform_values(DeterministicRNG(117).substream("values"), 700, 0.0, 1000.0)
        workload = RangeQueryWorkload(range_size=60.0, count=5)
        queries = workload.as_list(DeterministicRNG(117).substream("queries"))

        schemes = [
            ArmadaScheme(space=space),
            DcfCanScheme(space=space),
            SkipGraphScheme(space=space),
            ScrapScheme(space=space),
            SquidScheme(space=space),
            PhtScheme(space=space, substrate="chord"),
        ]
        for scheme in schemes:
            scheme.build(150, seed=117)
            scheme.load(values)

        for low, high in queries:
            expected = sorted(v for v in values if low <= v <= high)
            for scheme in schemes:
                measurement = scheme.query(low, high)
                assert sorted(measurement.matches) == expected, scheme.name

    def test_armada_has_lowest_delay_on_large_ranges(self):
        space = AttributeSpace(0.0, 1000.0)
        values = uniform_values(DeterministicRNG(119).substream("values"), 700, 0.0, 1000.0)
        armada = ArmadaScheme(space=space)
        dcf = DcfCanScheme(space=space)
        for scheme in (armada, dcf):
            scheme.build(300, seed=119)
            scheme.load(values)
        rng = DeterministicRNG(119).substream("queries")
        armada_delay = 0
        dcf_delay = 0
        for _ in range(10):
            low = rng.uniform(0.0, 600.0)
            armada_delay += armada.query(low, low + 300.0).delay_hops
            dcf_delay += dcf.query(low, low + 300.0).delay_hops
        assert armada_delay < dcf_delay
