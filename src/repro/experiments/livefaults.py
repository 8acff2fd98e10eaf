"""The live run: the fault drill on an asyncio cluster behind a gateway.

``repro livefaults`` and ``repro soak`` are two presets of one spec,
:class:`LiveFaultsSpec`, run by one :func:`run_async`: boot a
:class:`~repro.runtime.cluster.LiveCluster` behind
:func:`~repro.runtime.server.live_gateway`, run the fault drill
(:mod:`repro.experiments.drill` — the one ``repro faults`` runs on the
simulator) through a pooled :class:`~repro.api.LiveSession`, and report.

* ``repro livefaults`` (``LiveFaultsSpec()``) hard-kills a fraction of the
  peers exactly after query ``k = int(queries × 0.25)`` (``kill -9``
  semantics: no goodbye, route left dangling).  No component is told about
  the failures out of band: the SWIM control plane has to detect them (ping
  → ping-req → suspect → dead) and withdraw the victims' routes, and the
  resilience layer has to detour the queries around the holes.  The drill
  scores every query the way the simulated sweep does, so the live
  ``success_ratio`` is directly comparable to the ``repro faults`` figure
  for resilient PIRA at the same failed fraction —
  ``tests/paper/test_livefaults.py`` asserts the two land within a small
  gap of each other.
* ``repro soak`` (:data:`SOAK`) is the drill with no victims: sustained
  mixed PIRA/MIRA load, gossip off unless asked, no resilience policy.  Its
  two kill levers take the drill's one drawn victim at the same kill point:
  ``kill_peer`` withdraws the victim's route as it dies (no gossip would),
  ``kill_restart`` replays the victim from its durable log inside the same
  call and fails the run unless every acknowledged write survived.

What only a live run has lives here too: the wall-clock deadline and
resilience policy, gossip and the time membership took to converge on the
deaths, durable storage, the ``/metrics`` endpoint, a Chrome trace and the
flight recorder.  Results persist as one flat
:class:`~repro.analysis.store.ResultStore` record (``--store PATH``).

The run asserts nothing by itself; the CLI's ``--require-*`` flags turn its
ratios and the membership verdict into exit codes for the CI smoke jobs.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, ClassVar, Collection, Dict, List, Optional

from repro.api.live import LiveSession
from repro.experiments.drill import DrillOutcome, FaultDrill, run_drill
from repro.faults import ResiliencePolicy
from repro.gossip import SwimConfig
from repro.obs.spans import spans_to_chrome
from repro.runtime.cluster import LiveCluster
from repro.runtime.server import live_gateway
from repro.storage import BACKENDS, Backend

@dataclass(frozen=True)
class LiveFaultsSpec(FaultDrill):
    """The drill plus the live-only parameters (validated on construction)."""

    #: peer-node count; peers are distributed round-robin (None hosts one
    #: node per peer)
    nodes: Optional[int] = 8
    #: session connection-pool size
    pool: int = 4
    #: per-query deadline, wall-clock seconds
    deadline: float = 5.0
    #: resilience policy of the live executors, wall-clock seconds (None
    #: leaves the executors without one)
    policy: Optional[ResiliencePolicy] = ResiliencePolicy(
        per_hop_timeout=0.3, max_retries=2, reroute=True
    )
    #: run the gossip control plane (SWIM membership)
    gossip: bool = True
    #: brisk enough that detection completes well inside a short run, still
    #: multi-round (ping → indirect → suspicion) so the protocol is exercised
    gossip_config: SwimConfig = SwimConfig(
        interval=0.1, ping_timeout=0.1, indirect_timeout=0.15, suspicion_timeout=0.6
    )
    #: peer storage backend: memory (volatile) or wal (an append-only
    #: checksummed log per peer)
    storage: Backend = "memory"
    #: directory for durable logs (a temporary one, removed at the end, when unset)
    data_dir: Optional[str] = None
    #: hard-kill the drill's one victim at its kill point and withdraw its
    #: route without restarting it, so queries through its subtree fail
    kill_peer: bool = False
    #: hard-kill the drill's one victim at its kill point and restart it from
    #: its durable log; the run fails unless every acknowledged write survived
    kill_restart: bool = False
    #: expose /metrics (Prometheus text) on this port while the run lasts
    #: (None disables; 0 picks an ephemeral port)
    metrics_port: Optional[int] = None
    #: write a Chrome trace_event JSON of every query's span tree here
    #: (load it in Perfetto or chrome://tracing)
    trace_out: Optional[str] = None
    #: arm the flight recorder; dumps land in this directory as flight.dump
    record_dir: Optional[str] = None
    #: only write the dump when the run lost queries (status ratio < 1)
    postmortem_on_fail: bool = False

    #: not a field: give up waiting for membership convergence after this long
    convergence_timeout: ClassVar[float] = 15.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nodes is not None and self.nodes < 1:
            raise ValueError("nodes must be positive")
        if self.pool < 1:
            raise ValueError("pool must be at least 1")
        if self.deadline <= 0:
            raise ValueError("deadline must be positive")
        if self.storage not in BACKENDS:
            raise ValueError(f"storage must be one of {', '.join(BACKENDS)}")
        if self.kill_peer + self.kill_restart + bool(self.fraction) > 1:
            raise ValueError("kill-peer, kill-restart and fraction pick the victims; use one")
        if self.kill_restart and self.storage == "memory":
            raise ValueError(
                "kill-restart needs a durable backend (--storage wal); "
                "a memory peer comes back empty and every acked write is lost"
            )
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ValueError("metrics-port must be within [0, 65535]")
        if self.postmortem_on_fail and self.record_dir is None:
            raise ValueError("postmortem-on-fail requires --record-dir")

    @property
    def victims(self) -> int:
        """A kill lever takes exactly one victim; otherwise the drill's count."""
        return 1 if self.kill_peer or self.kill_restart else super().victims


#: ``repro soak``: the drill with no victims — sustained load, gossip off,
#: the default SWIM timing when ``--gossip`` turns it on, no resilience policy
SOAK = LiveFaultsSpec(
    seed=42,
    objects=1000,
    queries=1000,
    fraction=0.0,
    policy=None,
    gossip=False,
    gossip_config=SwimConfig(),
)


@dataclass
class LiveFaultsResult(DrillOutcome):
    """The drill's outcome plus what only a live run measures.

    ``success_ratio`` is the drill's score (a query succeeds when it reached
    its whole live truth, the victims forgiven); ``report.success_ratio``
    counts query statuses.
    """

    spec: LiveFaultsSpec
    #: seconds from the kill to every membership view holding the dead
    #: peers dead (NaN when they did not converge in time; None with gossip off)
    detection_seconds: Optional[float]
    stats: Dict[str, Any] = field(default_factory=dict)

    @property
    def killed(self) -> List[str]:
        return self.victims

    @property
    def converged(self) -> bool:
        return self.detection_seconds is not None and not math.isnan(self.detection_seconds)

    def record(self, experiment: str = "livefaults") -> Dict[str, Any]:
        """One flat :class:`~repro.analysis.store.ResultStore` record."""
        spec, stats, report = self.spec, self.stats, self.report
        return {
            "experiment": experiment,
            "scheme": "Armada (live)",
            "seed": spec.seed,
            "fraction": spec.fraction,
            "mira_fraction": spec.mira_fraction,
            "range_size": spec.range_size,
            "peers": spec.peers,
            "nodes": stats["nodes"],
            "storage": spec.storage,
            "write_replicas": spec.write_replicas,
            "replayed_records": stats["replayed_records"],
            "concurrency": spec.concurrency,
            "pool": spec.pool,
            "peak_in_flight": stats["peak_in_flight"],
            "killed": len(self.victims),
            "failed_fraction": len(self.victims) / spec.peers,
            # the run's summary on the wall clock; its status ratio keeps
            # its own name, ``success_ratio`` is the drill's score
            **report.as_dict(),
            "status_success_ratio": report.success_ratio,
            **super().record(),
            "detection_seconds": self.detection_seconds,
            "converged": 1.0 if self.converged else 0.0,
            "gossip_frames": stats["gossip_frames"],
            # the gateway's own frame counter for the run
            "frames": int(stats["obs"].get("repro_gateway_frames_total", 0)),
        }

    def format(self) -> str:
        """Human-readable summary."""
        spec, stats, score = self.spec, self.stats, self.score
        lines = [
            "Live fault drill (asyncio cluster on localhost TCP)",
            f"cluster           : {spec.peers} peers on {stats['nodes']} nodes, "
            f"seed {spec.seed}, gossip {'on' if spec.gossip else 'off'}",
            f"storage           : {spec.storage}, {spec.write_replicas} "
            f"cop{'y' if spec.write_replicas == 1 else 'ies'} per insert",
            f"workload          : {spec.queries} queries "
            f"({spec.mira_fraction:.0%} MIRA), closed loop x{spec.concurrency} "
            f"over {spec.pool} connections ("
            f"gateway peak in-flight {stats['peak_in_flight']})",
        ]
        if self.victims:
            fate = ""
            if spec.kill_peer:
                fate = "; route withdrawn, never restarted"
            elif spec.kill_restart:
                fate = "; restarted, {replayed} records replayed, digest intact".format(
                    **stats["kill_restart"]
                )
            lines.append(
                f"killed            : {len(self.victims)}/{spec.peers} peers "
                f"({len(self.victims) / spec.peers:.0%}) after {self.kill_at} queries: "
                f"{', '.join(self.victims)}{fate}"
            )
        if spec.gossip:
            verdict = (
                f"converged on the deaths in {self.detection_seconds:.2f}s"
                if self.converged
                else f"did NOT converge (waited {spec.convergence_timeout:g}s)"
            )
            lines.append(f"detection         : membership {verdict}")
        lines += [
            f"success ratio     : {self.success_ratio:.4f} "
            f"(vs surviving-peer ground truth; {score.deadline_failed} deadline-failed)",
            f"completeness      : mean {score.mean:.4f}, min {score.minimum:.4f}; "
            f"full oracle mean {score.full_mean:.4f}, min {score.full_minimum:.4f}",
            self.report.format(clock="wall"),
        ]
        if stats.get("postmortem"):
            pm = stats["postmortem"]
            lines.append(
                f"flight recorder   : {pm['events']} events "
                f"({pm['evicted']} evicted) dumped to {pm['path']} [{pm['reason']}]"
            )
        return "\n".join(lines)


def run(spec: Optional[LiveFaultsSpec] = None) -> LiveFaultsResult:
    """Run one live drill (blocking wrapper around the asyncio run)."""
    return asyncio.run(run_async(spec if spec is not None else LiveFaultsSpec()))


async def _detection(cluster: LiveCluster, dead: Collection[str], timeout: float) -> float:
    """Seconds until every membership view holds ``dead`` dead, or NaN
    after ``timeout`` seconds without that."""
    killed = time.perf_counter()
    while time.perf_counter() - killed < timeout:
        if cluster.membership_converged(expect_dead=dead):
            return time.perf_counter() - killed
        await asyncio.sleep(0.02)
    return float("nan")


def _crash_and_replay(cluster: LiveCluster, victim: str) -> Dict[str, Any]:
    """Hard-kill ``victim`` and restart it from its durable log at once.

    The crash power-fails the peer (in-memory views and any unsynced bytes
    are gone); ``intact`` says whether it emptied the peer and the replay
    restored its content-addressed digest — i.e. every acknowledged write
    survived ``kill -9``.
    """
    peer = cluster.network.peer(victim)
    before = (peer.object_count(), peer.backend.digest())
    cluster.crash_peer(victim)
    emptied = peer.object_count() == 0
    replayed = cluster.restart_peer(victim)
    after = (peer.object_count(), peer.backend.digest())
    return {
        "victim": victim,
        "replayed": replayed,
        "objects_before": before[0],
        "objects_after": after[0],
        "intact": emptied and after == before,
    }


async def run_async(spec: LiveFaultsSpec) -> LiveFaultsResult:
    """Boot, run the drill, time the convergence on the deaths, and report."""
    # A durable backend without a --data-dir writes into a temporary
    # directory that goes with the run, however the run ends.
    data_dir = (
        tempfile.TemporaryDirectory(prefix="repro-live-")
        if spec.storage != "memory" and spec.data_dir is None
        else nullcontext(spec.data_dir)
    )
    with data_dir as path:
        return await _run(spec, path)


async def _run(spec: LiveFaultsSpec, data_dir: Optional[str]) -> LiveFaultsResult:
    cluster = LiveCluster(
        num_peers=spec.peers,
        seed=spec.seed,
        num_nodes=spec.nodes,
        attribute_interval=spec.attribute_interval,
        attribute_intervals=(spec.attribute_interval, spec.attribute_interval),
        storage=spec.storage,
        data_dir=data_dir,
        gossip=spec.gossip,
        gossip_config=spec.gossip_config,
    )
    detections: List["asyncio.Task[float]"] = []
    restart: Dict[str, Any] = {}

    def kill(victims: List[str]) -> None:
        for victim in victims:
            if spec.kill_restart:
                restart.update(_crash_and_replay(cluster, victim))
                continue
            # kill -9: the cluster only marks the victim down; withdrawing
            # its route is the gossip plane's job, timed from here.
            cluster.crash_peer(victim)
            if spec.kill_peer:
                # ... unless nothing would: this lever withdraws it at once.
                cluster.transport.unregister(victim)
        if spec.gossip:
            watch = _detection(cluster, set(cluster.down_peers), spec.convergence_timeout)
            detections.append(asyncio.create_task(watch))

    async with live_gateway(
        cluster,
        deadline=spec.deadline,
        metrics_port=spec.metrics_port,
        record=spec.record_dir is not None,
    ) as (gateway, metrics_server):
        tracer, recorder = gateway.tracer, gateway.recorder
        try:
            if spec.trace_out is not None:
                # Server-side tracing: every query gets a span tree whether or
                # not its request asked for one, so the Chrome trace covers
                # the whole run.
                for executor in cluster.executors.values():
                    executor.set_tracer(tracer, all_queries=True)
            if metrics_server is not None:
                print(
                    f"metrics listening on {metrics_server.host}:{metrics_server.port}/metrics",
                    flush=True,
                )
            session = await LiveSession.connect(*gateway.address, pool=spec.pool)
            try:
                outcome = await run_drill(spec, session, cluster, spec.policy, kill)
                # Checked once the drill is over: the completion listener
                # that restarted the victim must not raise into the load driver.
                if restart and not restart["intact"]:
                    raise RuntimeError(
                        "kill-restart lost acknowledged writes on {victim!r}: "
                        "{objects_after}/{objects_before} objects after replaying "
                        "{replayed} records".format(**restart)
                    )
                detection = await detections[0] if detections else None
                stats = await session.stats()
                stats["killed_after"] = outcome.kill_at
                if restart:
                    stats["kill_restart"] = restart
                stats["obs"] = gateway.metrics.snapshot()
                if spec.trace_out is not None:
                    stats["trace_out"] = _write_trace(tracer, spec.trace_out)
            finally:
                await session.close()
        except BaseException:
            # A run that dies midway is exactly what the flight recorder is
            # for: capture everything seen so far before the exception escapes.
            if recorder is not None:
                recorder.dump(os.path.join(spec.record_dir, "flight.dump"), reason="exception")
            raise
    if recorder is not None:
        # ``postmortem_on_fail`` keeps healthy runs dump-free; without it a
        # record_dir always gets the full ring (the replay-test workflow).
        failed = outcome.report.success_ratio < 1.0
        if failed or not spec.postmortem_on_fail:
            reason = "postmortem" if failed else "soak-end"
            stats["postmortem"] = {
                "path": recorder.dump(os.path.join(spec.record_dir, "flight.dump"), reason=reason),
                "events": len(recorder.events()),
                "evicted": recorder.evicted,
                "reason": reason,
            }
    return LiveFaultsResult(**vars(outcome), spec=spec, detection_seconds=detection, stats=stats)


def _write_trace(tracer: Any, path: str) -> Dict[str, Any]:
    """Drain the tracer into a Chrome ``trace_event`` JSON file."""
    traces = tracer.drain()
    payload = spans_to_chrome(traces)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return {"path": path, "traces": len(traces), "spans": len(payload["traceEvents"])}
