"""Unit tests for workload generators and domain datasets."""

from __future__ import annotations

import pytest

from repro.sim.rng import DeterministicRNG
from repro.workloads.datasets import generate_grid_resources, generate_student_scores
from repro.workloads.queries import MultiAttributeQueryWorkload, RangeQueryWorkload
from repro.workloads.values import normal_values, uniform_values

from oracles import zipf_values


class TestValueGenerators:
    def test_uniform_values_in_range_and_reproducible(self):
        first = uniform_values(DeterministicRNG(1), 500, 10.0, 20.0)
        second = uniform_values(DeterministicRNG(1), 500, 10.0, 20.0)
        assert first == second
        assert all(10.0 <= value <= 20.0 for value in first)
        assert len(first) == 500

    def test_uniform_values_validation(self):
        with pytest.raises(ValueError):
            uniform_values(DeterministicRNG(1), -1)
        with pytest.raises(ValueError):
            uniform_values(DeterministicRNG(1), 5, 10.0, 5.0)

    def test_normal_values_truncated(self):
        values = normal_values(DeterministicRNG(2), 400, mean=50.0, stddev=30.0, low=0.0, high=100.0)
        assert len(values) == 400
        assert all(0.0 <= value <= 100.0 for value in values)
        mean = sum(values) / len(values)
        assert 35.0 < mean < 65.0

    def test_zipf_values_are_skewed(self):
        values = zipf_values(DeterministicRNG(3), 2000, alpha=1.3, buckets=50, low=0.0, high=1000.0)
        assert all(0.0 <= value <= 1000.0 for value in values)
        first_bucket = sum(1 for value in values if value < 20.0)
        last_bucket = sum(1 for value in values if value >= 980.0)
        assert first_bucket > last_bucket


class TestRangeQueryWorkload:
    def test_queries_have_requested_size_and_stay_inside_interval(self):
        workload = RangeQueryWorkload(range_size=50.0, low=0.0, high=1000.0, count=200)
        queries = workload.as_list(DeterministicRNG(5))
        assert len(queries) == 200
        for low, high in queries:
            assert high - low == pytest.approx(50.0)
            assert 0.0 <= low <= high <= 1000.0

    def test_reproducible(self):
        workload = RangeQueryWorkload(range_size=20.0, count=50)
        assert workload.as_list(DeterministicRNG(6)) == workload.as_list(DeterministicRNG(6))

    def test_validation(self):
        with pytest.raises(ValueError):
            RangeQueryWorkload(range_size=-1.0)
        with pytest.raises(ValueError):
            RangeQueryWorkload(range_size=2000.0, low=0.0, high=1000.0)
        with pytest.raises(ValueError):
            RangeQueryWorkload(range_size=10.0, low=5.0, high=1.0)
        with pytest.raises(ValueError):
            RangeQueryWorkload(range_size=10.0, count=-1)


class TestMultiAttributeWorkload:
    def test_boxes_respect_sizes_and_intervals(self):
        workload = MultiAttributeQueryWorkload(
            range_sizes=[10.0, 200.0],
            intervals=[(0.0, 100.0), (0.0, 1000.0)],
            count=80,
        )
        boxes = workload.as_list(DeterministicRNG(7))
        assert len(boxes) == 80
        for box in boxes:
            assert box[0][1] - box[0][0] == pytest.approx(10.0)
            assert box[1][1] - box[1][0] == pytest.approx(200.0)
            assert 0.0 <= box[0][0] <= box[0][1] <= 100.0
            assert 0.0 <= box[1][0] <= box[1][1] <= 1000.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MultiAttributeQueryWorkload(range_sizes=[10.0], intervals=[(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            MultiAttributeQueryWorkload(range_sizes=[10.0], intervals=[(0.0, 5.0)])


class TestDatasets:
    def test_student_scores_shape(self):
        scores = generate_student_scores(DeterministicRNG(8), 300)
        assert len(scores) == 300
        assert all(0.0 <= record.score <= 100.0 for record in scores)
        assert len({record.student_id for record in scores}) == 300

    def test_grid_resources_shape(self):
        resources = generate_grid_resources(DeterministicRNG(9), 400)
        assert len(resources) == 400
        for machine in resources:
            memory, disk, cpu = machine.as_tuple()
            assert 0.0 < memory <= 64.0
            assert 0.0 < disk <= 4000.0
            assert 0.0 < cpu <= 5.0

    def test_grid_resources_cover_small_and_large_profiles(self):
        resources = generate_grid_resources(DeterministicRNG(10), 600)
        assert any(machine.memory_gb <= 2.5 for machine in resources)
        assert any(machine.memory_gb >= 12.0 for machine in resources)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            generate_grid_resources(DeterministicRNG(11), -1)
