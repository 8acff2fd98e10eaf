"""Property tests: membership convergence under seeded fault interleavings.

The sim-side gossip model (:class:`repro.gossip.GossipSim`) runs the
exact live SWIM protocol code as nodes of the simulated overlay, so its
frames meet the one fault injector the query plane faces — one (seed,
fault models) pair is one exact interleaving of loss, duplication,
reordering and partition.  Hypothesis sweeps that space and asserts the
protocol's core promise at every point: surviving views converge to one
agreed liveness verdict, dead peers end up dead everywhere, no healthy
peer is ever written off, and a healed partition leaves no split brain.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import Bisection, Duplicate, ExtraDelay, GilbertLoss, IidLoss
from repro.gossip import ALIVE, DEAD, SUSPECT, GossipSim, SwimConfig

FAST = SwimConfig(
    interval=0.05, ping_timeout=0.05, indirect_timeout=0.08, suspicion_timeout=0.3
)

#: generous sim-time budget: even at 40% loss the rumor mill has hundreds
#: of rounds here, so a timeout is a real convergence failure, not noise
TIMEOUT = 60.0

#: every message-level fault model, as a function of one rate in [0, 0.4]
#: (extra delays are drawn at the FAST timers' scale, so they reorder)
FAULTS = {
    "iid-loss": lambda rate: [IidLoss(rate)],
    "burst-loss": lambda rate: [GilbertLoss(p_bad=rate / 2)],
    "duplicate": lambda rate: [Duplicate(rate)],
    "reorder": lambda rate: [ExtraDelay(rate, mean_extra=0.05)],
    "mix": lambda rate: [
        IidLoss(rate / 2), Duplicate(rate), ExtraDelay(rate, mean_extra=0.05)
    ],
}


class TestConvergenceUnderLoss:
    @pytest.mark.parametrize("faults", sorted(FAULTS))
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rate=st.floats(min_value=0.0, max_value=0.4),
        nodes=st.integers(min_value=3, max_value=7),
    )
    def test_views_converge_on_a_crash(self, faults, seed, rate, nodes):
        sim = GossipSim(
            nodes=nodes, seed=seed, config=FAST, models=FAULTS[faults](rate), peers_per_node=2
        )
        sim.start()
        sim.run(until=1.0)
        victims = sim.crash(f"node-{seed % nodes}")
        when = sim.run_until_converged(expect_dead=victims, timeout=TIMEOUT)
        assert when is not None, (
            f"no convergence within {TIMEOUT} sim-seconds "
            f"(faults={faults}, seed={seed}, rate={rate:.2f}, nodes={nodes})"
        )
        views = sim.surviving_views()
        fingerprints = {view.liveness_view() for view in views}
        assert len(fingerprints) == 1
        for view in views:
            for victim in victims:
                assert view.state_of(victim) == DEAD

    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        loss=st.floats(min_value=0.0, max_value=0.4),
    )
    def test_healthy_peers_end_up_alive_everywhere(self, seed, loss):
        """Loss alone must never *permanently* bury a peer.

        At high loss a refutation can lose the race against a suspicion
        timeout, so a healthy peer may transiently read ``dead`` in some
        view — that is inherent to SWIM, not a bug.  What the protocol
        does guarantee is the eventual fix: the peer's own host refutes
        every rumor about its live tenants at a fresh incarnation, so the
        stable agreement point is all-alive.
        """
        sim = GossipSim(nodes=5, seed=seed, config=FAST, models=[IidLoss(loss)])
        sim.start()
        sim.run(until=5.0)
        when = sim.run_until_converged(timeout=TIMEOUT)
        assert when is not None, (
            f"views never re-converged under loss={loss:.2f} (seed={seed})"
        )
        for view in sim.surviving_views():
            for peer in (f"P{index}" for index in range(5)):
                # A just-adopted suspicion may still be in flight at the
                # sampled instant; buried (dead/left) is the failure.
                assert view.state_of(peer) in (ALIVE, SUSPECT)


class TestPartitionHeals:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        duration=st.floats(min_value=1.0, max_value=5.0),
        nodes=st.integers(min_value=4, max_value=8),
    )
    def test_views_reconverge_all_alive_after_the_heal(self, seed, duration, nodes):
        """A partition that outlives ping → ping-req → suspicion leaves each
        half holding the other half dead.  No peer actually died, so once
        the cut heals the dead must be probed back to life: every view
        agrees again, and every peer is alive in every view."""
        sim = GossipSim(
            nodes=nodes, seed=seed, config=FAST, models=[Bisection(at=1.0, duration=duration)]
        )
        sim.start()
        sim.run(until=1.0 + duration)
        when = sim.run_until_converged(timeout=TIMEOUT)
        assert when is not None, (
            f"split brain {TIMEOUT} sim-seconds after the heal "
            f"(seed={seed}, duration={duration:.2f}, nodes={nodes})"
        )
        for view in sim.surviving_views():
            for peer in (f"P{index}" for index in range(nodes)):
                assert view.state_of(peer) == ALIVE
