"""Shared fixtures for the paper's figure/table checks.

Each module asserts the shape of one table, figure or claim of the paper.
The figure sweeps are orchestrator grids (every point with its own derived
seed and overlay) and deterministic, so each is computed once per session
and shared.  The configuration is smaller than the paper's (fewer queries per
point, network sizes up to 4000 instead of 8000) so the directory finishes
in well under a minute; ``repro <figure> --profile paper`` runs the
full-size sweeps (N up to 8000, 1000 queries per point).
"""

from __future__ import annotations

import pytest

from repro.experiments import faults, figures_netsize, figures_rangesize
from repro.experiments.common import ExperimentConfig


@pytest.fixture(scope="session")
def config() -> ExperimentConfig:
    return ExperimentConfig(
        peers=1000,
        queries_per_point=60,
        objects=3000,
        range_sizes=(2, 10, 50, 100, 150, 200, 250, 300),
        network_sizes=(500, 1000, 2000, 4000),
        fixed_range_size=20.0,
    )


@pytest.fixture(scope="session")
def rangesize_sweep(config):
    """The Figure 5 / 6 sweep (range size 2..300 at fixed N)."""
    return figures_rangesize.run(config)


@pytest.fixture(scope="session")
def netsize_sweep(config):
    """The Figure 7 / 8 sweep (network size sweep at fixed range size)."""
    return figures_netsize.run(config.with_overrides(queries_per_point=30))


@pytest.fixture(scope="session")
def faults_sweep():
    """Resilient PIRA vs the seed protocol at 0 / 10 / 20 % failed peers."""
    sweep_config = ExperimentConfig.quick().with_overrides(
        peers=256, queries_per_point=60, objects=1200
    )
    spec = faults.FaultSweepSpec.from_config(
        sweep_config, schemes=("pira", "pira-basic"), fractions=(0.0, 0.1, 0.2)
    )
    return faults.run_sweep(spec, workers=1)
