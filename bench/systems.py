"""Booting the system under test and publishing the corpus.

Live workloads wire cluster, gateway and session into one process and
one event loop exactly as ``repro soak`` does (``build_observability``
included, so the gateway carries the same metrics plane); all traffic
crosses loopback TCP.  ``sim-scale`` drives an ``ArmadaSystem`` through
``SimSession`` — no sockets, no codec.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List, Optional, Sequence

from repro.api.live import LiveSession
from repro.api.requests import Request
from repro.api.sim import SimSession
from repro.core.armada import ArmadaSystem
from repro.fissione.network import FissioneNetwork
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway
from repro.runtime.server import build_observability
from repro.sim.rng import DeterministicRNG

from bench.workloads import INTERVAL, TOPOLOGY_SEED, Workload

#: corpus inserts are posted in batches of this size (as ``repro soak`` does)
PUBLISH_BATCH = 256
#: a reference reading follows every this many batches (every 50-100 ms)
BATCHES_PER_READING = 8


class System:
    """One booted system under test plus the session that drives it."""

    def __init__(self, spec: Workload) -> None:
        self.spec = spec
        self.session: Any = None
        self.cluster: Optional[LiveCluster] = None
        self.gateway: Optional[Gateway] = None
        self.armada: Optional[ArmadaSystem] = None
        #: wall seconds spent in FissioneNetwork.build (sim only; the live
        #: bootstrap grows its topology join by join instead)
        self.build_wall_s = 0.0

    @classmethod
    async def boot(
        cls, spec: Workload, corpus: Sequence[Request], reading: Callable[[], None]
    ) -> "System":
        """Boot, connect and publish ``corpus``; raises if any insert fails.

        ``reading`` is called at fixed points of the set-up — after the
        topology build, after the system is up, and every
        ``BATCHES_PER_READING`` publish batches — so the caller can
        interleave its reference readings.  Fixed points, not fixed
        intervals: a reading allocates, and where it falls among the
        set-up's own allocations decides how the system's long-lived objects
        are laid out in memory.
        """
        system = cls(spec)
        try:
            if spec.backend == "live":
                await system._boot_live()
            else:
                system._boot_sim(reading)
            reading()
            for batch, index in enumerate(range(0, len(corpus), PUBLISH_BATCH), start=1):
                await system.session.batch(corpus[index : index + PUBLISH_BATCH])
                if batch % BATCHES_PER_READING == 0:
                    reading()
        except BaseException:
            await system.close()
            raise
        return system

    async def _boot_live(self) -> None:
        spec = self.spec
        self.cluster = LiveCluster(
            num_peers=spec.peers,
            seed=TOPOLOGY_SEED,
            num_nodes=spec.nodes,
            attribute_interval=INTERVAL,
            attribute_intervals=(INTERVAL, INTERVAL),
        )
        await self.cluster.start()
        tracer, registry = build_observability(self.cluster)
        self.gateway = await Gateway(
            self.cluster, deadline=5.0, tracer=tracer, metrics=registry
        ).start()
        self.session = await LiveSession.connect(
            *self.gateway.address, pool=spec.connections
        )

    def _boot_sim(self, reading: Callable[[], None]) -> None:
        # Built here, exactly as ArmadaSystem would, so the build can be
        # timed from the benchmark's side.
        started = time.perf_counter()
        network = FissioneNetwork.build(
            num_peers=self.spec.peers,
            rng=DeterministicRNG(TOPOLOGY_SEED).substream("topology"),
            object_id_length=32,
        )
        self.build_wall_s = time.perf_counter() - started
        reading()
        self.armada = ArmadaSystem(
            num_peers=self.spec.peers,
            seed=TOPOLOGY_SEED,
            attribute_interval=INTERVAL,
            attribute_intervals=(INTERVAL, INTERVAL),
            network=network,
        )
        self.session = SimSession(self.armada)

    def peer_ids(self) -> List[str]:
        return (self.cluster or self.armada).network.peer_ids()

    def processed_events(self) -> int:
        """Simulator events processed so far (0 on the live backend)."""
        return self.armada.overlay.simulator.processed_events if self.armada else 0

    async def close(self) -> None:
        """Close session, gateway and cluster (idempotent)."""
        if self.session is not None:
            await self.session.close()
            self.session = None
        if self.gateway is not None:
            await self.gateway.shutdown(drain=True)
            self.gateway = None
        if self.cluster is not None:
            await self.cluster.stop()
            self.cluster = None
        self.armada = None
