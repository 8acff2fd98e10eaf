"""Workload generators: values, range queries, arrivals, churn, datasets."""

from repro.workloads.arrivals import (
    ChurnEvent,
    ChurnSchedule,
    periodic_churn,
    poisson_arrival_times,
    uniform_arrival_times,
    zipf_range_queries,
)
from repro.workloads.datasets import (
    GridResource,
    StudentScore,
    generate_grid_resources,
    generate_student_scores,
)
from repro.workloads.queries import (
    MultiAttributeQueryWorkload,
    RangeQueryWorkload,
)
from repro.workloads.values import (
    normal_values,
    uniform_values,
)

__all__ = [
    "ChurnEvent",
    "ChurnSchedule",
    "periodic_churn",
    "poisson_arrival_times",
    "uniform_arrival_times",
    "zipf_range_queries",
    "GridResource",
    "StudentScore",
    "generate_grid_resources",
    "generate_student_scores",
    "MultiAttributeQueryWorkload",
    "RangeQueryWorkload",
    "normal_values",
    "uniform_values",
]
