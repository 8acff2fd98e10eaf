"""The robustness-under-failure curve.

The failed-fraction grid (resilient PIRA vs the seed protocol, 256 peers)
must have the expected shape: resilient success stays high where the basic
protocol degrades.  The sweep is seed-fixed and runs on the simulator, so
its figures at 20 % failed are exact and are asserted as such.
"""

from __future__ import annotations

import pytest


def test_faults_robustness_curve(faults_sweep):
    assert faults_sweep.jobs == len(faults_sweep.spec.jobs())
    fractions, success = faults_sweep.curve("success_ratio")
    _, completeness = faults_sweep.curve("mean_completeness")

    # Fault-free, both variants retrieve everything.
    assert success["pira"][0] == 1.0
    assert success["pira-basic"][0] == 1.0
    # Under failure, the resilience machinery is the difference: retries +
    # rerouting keep the resilient curve at or above the basic one at every
    # fraction, and strictly better at the worst point.
    for index in range(len(fractions)):
        assert success["pira"][index] >= success["pira-basic"][index]
    assert success["pira"][-1] > success["pira-basic"][-1]
    assert completeness["pira"][-1] > completeness["pira-basic"][-1]

    assert fractions[-1] == 0.2
    assert success["pira"][-1] == pytest.approx(56 / 60)
    assert completeness["pira"][-1] == pytest.approx(60 / 60)
    assert success["pira-basic"][-1] == pytest.approx(24 / 60)
