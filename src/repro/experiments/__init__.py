"""Experiment harness: one module per paper table / figure.

Every module exposes a ``run(config)`` function returning plain data
structures plus formatting helpers, so the same code backs the CLI
(``armada-repro``), the paper's shape checks under ``tests/paper/`` and
the integration tests.
"""

from repro.experiments.common import ExperimentConfig, run_scheme_queries

__all__ = ["ExperimentConfig", "run_scheme_queries"]
