"""Discrete-event simulation substrate for P2P overlay experiments.

The paper evaluates Armada with an overlay simulator that measures per-query
delay (in overlay hops) and message cost.  This package provides the pieces
such a simulator needs:

* :mod:`repro.sim.engine` -- a minimal, deterministic discrete-event scheduler.
* :mod:`repro.sim.network` -- an overlay network model that delivers messages
  between nodes with a pluggable latency model and counts every send; the
  query executors and the gossip control plane's SWIM agents both run on it.
* :mod:`repro.sim.metrics` -- summary statistics helpers.
* :mod:`repro.sim.rng` -- seeded random-source helpers so experiments are
  reproducible.
"""

from repro.sim.engine import Simulator
from repro.sim.metrics import SummaryStats
from repro.sim.network import HopLatencyModel, Message, OverlayNetwork, UniformLatencyModel
from repro.sim.rng import DeterministicRNG, derive_seed

__all__ = [
    "Simulator",
    "SummaryStats",
    "Message",
    "OverlayNetwork",
    "HopLatencyModel",
    "UniformLatencyModel",
    "DeterministicRNG",
    "derive_seed",
]
