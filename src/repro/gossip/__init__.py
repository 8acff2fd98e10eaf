"""Gossip control plane: decentralized membership and failure detection.

The control plane is deliberately separate from the query data plane: the
data plane (:mod:`repro.core`, :mod:`repro.runtime`) forwards range
queries along the Kautz overlay; this package answers the orthogonal
question *"who is alive, and where?"* — a SWIM-style protocol of periodic
pings, indirect probes and epidemically piggybacked membership digests.

* :mod:`repro.gossip.membership` — the shared table: ``alive`` /
  ``suspect`` / ``dead`` / ``left`` entries with incarnation numbers,
  per-entry versioning and SWIM merge precedence;
* :mod:`repro.gossip.swim` — the timer-driven loop, run over a transport
  (``schedule_after`` and ``send_frame``) as the query executors are;
* :mod:`repro.gossip.simmodel` — the same loop with its agents as nodes of
  the simulated overlay, under the fault injector's seeded models.
"""

from repro.gossip.membership import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    MemberEntry,
    MembershipTable,
)
from repro.gossip.swim import GOSSIP_FRAME, SwimConfig, SwimNode
from repro.gossip.simmodel import GossipSim

__all__ = [
    "ALIVE",
    "SUSPECT",
    "DEAD",
    "LEFT",
    "MemberEntry",
    "MembershipTable",
    "GOSSIP_FRAME",
    "SwimConfig",
    "SwimNode",
    "GossipSim",
]
