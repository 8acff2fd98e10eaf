"""Serving under churn — SIGKILL mid-soak, gossip detection.

Boots the gossip-enabled live cluster at the acceptance scale (32 peers
on 8 nodes), runs the deterministic mixed workload, and hard-kills 20% of
the peers mid-run.  Nothing is told about the failures out of band: the
SWIM plane must detect them and withdraw routes while the resilience
layer detours queries around the holes.

The assertions are the acceptance bar: the membership views must converge
on the deaths, and the live resilient success ratio — scored against
surviving-peer ground truth, exactly like the simulated sweep — must land
within 0.10 of the sim figure at the same failed fraction.
"""

from __future__ import annotations

from repro.experiments.livefaults import LiveFaultsSpec, run as run_livefaults

#: live success must land within this gap of the sim figure
SIM_GAP = 0.10


def test_livefaults_serving_under_churn(faults_sweep):
    spec = LiveFaultsSpec()  # 32 peers, fraction 0.2, seed 1
    result = run_livefaults(spec)

    # Detection: every surviving view converged on exactly the victims.
    assert result.converged, "membership views never converged on the deaths"
    assert result.detection_seconds < spec.convergence_timeout
    assert len(result.killed) == spec.victims

    # Serving: the live ratio must sit near the sim's resilient figure at
    # the same failed fraction — neither collapsing (detection too slow,
    # detours broken) nor implausibly perfect relative to the model.
    fractions, success = faults_sweep.curve("success_ratio")
    sim_ratio = success["pira"][fractions.index(spec.fraction)]
    assert abs(result.success_ratio - sim_ratio) <= SIM_GAP, (
        f"live success ratio {result.success_ratio:.4f} outside "
        f"{SIM_GAP:g} of sim {sim_ratio:.4f}"
    )
    assert result.report.queries == spec.queries
