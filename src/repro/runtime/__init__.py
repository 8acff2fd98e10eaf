"""Live serving runtime: the Armada overlay on real asyncio sockets.

Everything below :mod:`repro.runtime` runs the *same* resumable PIRA/MIRA
handlers as the discrete-event simulator — the transport seam
(:mod:`repro.core.transport`) is what lets one handler codebase serve both
worlds.  Client-facing code should not import this package directly but go
through :mod:`repro.api` (``LiveSession`` for a gateway, ``SimSession``
for the simulator).  The pieces:

* :mod:`~repro.runtime.protocol` — length-prefixed JSON frames (the one
  body encoding of every runtime socket), the message↔wire mapping, the
  ``error`` frame, and the framed TCP connection written once, as one
  :class:`asyncio.Protocol` that cuts and dispatches frames in
  ``data_received``: :class:`~repro.runtime.protocol.Connection` (the
  client end — casts, rid-matched requests) and
  :class:`~repro.runtime.protocol.FrameServer` (the server end both
  listeners, peer node and gateway, use);
* :mod:`~repro.runtime.transport` — :class:`AsyncioTransport`, the live
  :class:`~repro.core.transport.Transport`: peer→address routing, one TCP
  connection per node for casts and requests alike, ``loop.call_later``
  timers;
* :mod:`~repro.runtime.node` — :class:`PeerNode`, one TCP server hosting
  one or more FISSIONE peers;
* :mod:`~repro.runtime.cluster` — :class:`LiveCluster`, which grows N
  peers in process with the simulator's own join (the exact join sequence
  :meth:`FissioneNetwork.build` performs, so a live cluster and an
  :class:`~repro.core.armada.ArmadaSystem` with the same seed are
  topologically identical);
* :mod:`~repro.runtime.gateway` — the TCP front door: the same framed
  connection, multiplexed (rid-tagged requests, one reply each, answered
  in completion order); its client is
  :class:`repro.api.LiveSession`;
* :mod:`~repro.runtime.loadgen` — the seeded mixed workload, and the one
  load driver (:class:`~repro.engine.query_engine.LoadDriver`) bound to the
  asyncio clock and a :class:`~repro.api.session.Session`;
* :mod:`~repro.runtime.server` — the ``repro serve`` runner with
  SIGINT/SIGTERM draining.
"""

from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway
from repro.runtime.loadgen import make_mixed_jobs, run_jobs
from repro.runtime.transport import AsyncioTransport

__all__ = [
    "AsyncioTransport",
    "Gateway",
    "LiveCluster",
    "make_mixed_jobs",
    "run_jobs",
]
