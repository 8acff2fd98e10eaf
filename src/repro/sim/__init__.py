"""Discrete-event simulation substrate for P2P overlay experiments.

The paper evaluates Armada with an overlay simulator that measures per-query
delay (in overlay hops) and message cost.  This package provides the pieces
such a simulator needs:

* :mod:`repro.sim.engine` -- a minimal, deterministic discrete-event scheduler.
* :mod:`repro.sim.events` -- event records used by the scheduler.
* :mod:`repro.sim.network` -- an overlay network model that delivers messages
  between nodes with a pluggable latency model and counts every send.
* :mod:`repro.sim.metrics` -- counters / summary statistics helpers.
* :mod:`repro.sim.rng` -- seeded random-source helpers so experiments are
  reproducible.
"""

from repro.sim.engine import Simulator
from repro.sim.events import Event, MessageDelivery, TimerFired
from repro.sim.metrics import Counter, MetricsRegistry, SummaryStats
from repro.sim.network import HopLatencyModel, Message, OverlayNetwork, UniformLatencyModel
from repro.sim.rng import DeterministicRNG, derive_seed

__all__ = [
    "Simulator",
    "Event",
    "MessageDelivery",
    "TimerFired",
    "Counter",
    "MetricsRegistry",
    "SummaryStats",
    "Message",
    "OverlayNetwork",
    "HopLatencyModel",
    "UniformLatencyModel",
    "DeterministicRNG",
    "derive_seed",
]
