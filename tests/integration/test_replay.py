"""Integration: record a live soak, replay it in the sim, detect tampering.

The flight recorder's core promise is the live≡sim equivalence turned
into a checked runtime property: a recorded live run must re-execute in
the simulator with **zero divergences**, and any edit to the recording
must be caught at the exact sequence number of the edited event.
"""

from __future__ import annotations

import asyncio
from dataclasses import replace

import pytest

from repro.api.live import LiveSession
from repro.core.armada import ArmadaSystem
from repro.experiments import postmortem
from repro.experiments.drill import FaultDrill
from repro.experiments.livefaults import SOAK, run_async
from repro.obs.recorder import FlightRecorder, load_dump, write_dump
from repro.obs.replay import replay_events
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway


def record_soak(tmp_path, **overrides):
    """Run one small recorded soak; returns (its result, dump events)."""
    params = dict(
        peers=8,
        nodes=2,
        queries=30,
        objects=40,
        concurrency=4,
        seed=11,
        record_dir=str(tmp_path),
    )
    params.update(overrides)
    spec = replace(SOAK, **params)
    result = asyncio.run(run_async(spec))
    events = load_dump(str(tmp_path / "flight.dump"))
    return result, events


def replayable(events):
    """Strip the synthetic trailer, as the CLI does before replaying."""
    return [ev for ev in events if ev.get("type") != "dump"]


class TestCleanReplay:
    def test_recorded_live_soak_replays_with_zero_divergences(self, tmp_path):
        result, events = record_soak(tmp_path)
        assert result.report.success_ratio == 1.0
        report = replay_events(replayable(events))
        assert report.ok, report.divergence.format()
        assert report.queries == 30
        # Every live reply was re-derived and compared field by field.
        assert report.replies_checked == 30
        assert report.undelivered == 0
        assert report.unapplied == 0
        # Replay traces every query, even ones never traced live.
        assert len(report.traces) == 30
        assert report.meta["peers"] == 8
        assert result.stats["postmortem"]["reason"] == "soak-end"

    def test_mira_queries_replay_too(self, tmp_path):
        _, events = record_soak(tmp_path, mira_fraction=1.0)
        report = replay_events(replayable(events))
        assert report.ok, report.divergence.format()
        assert report.replies_checked == 30

    def test_durable_kill_restart_replays_the_restarted_peers_stores(self, tmp_path):
        """The restarted WAL peer's replies read its recorded stores again."""
        result, events = record_soak(
            tmp_path, queries=60, storage="wal", kill_restart=True, write_replicas=2
        )
        assert result.report.success_ratio == 1.0
        restart = next(
            ev for ev in events if ev["type"] == "fault" and ev["action"] == "restart"
        )
        assert restart["replayed"] > 0
        report = replay_events(replayable(events))
        assert report.ok, report.divergence.format()
        assert report.replies_checked == report.queries == 60


    def test_a_reply_whose_client_left_has_no_result(self):
        """A client that disconnects before its query completes leaves a
        ``reply`` event without a ``result``, and the dump replays clean."""

        async def scenario():
            cluster = await LiveCluster(num_peers=8, seed=3).start()
            recorder = FlightRecorder()
            cluster.attach_recorder(recorder)
            gateway = await Gateway(cluster, deadline=0.2, recorder=recorder).start()
            origin, victim = cluster.network.peer_ids()[:2]
            # Frames to the crashed victim die, so only the deadline ends
            # the query, well after the client has gone.
            cluster.crash_peer(victim)
            session = await LiveSession.connect(*gateway.address, pool=1)
            query = asyncio.create_task(session.range(0.0, 1000.0, origin=origin))
            while gateway.in_flight == 0:
                await asyncio.sleep(0.01)
            await session.close()
            with pytest.raises(Exception):
                await query
            while gateway.in_flight:
                await asyncio.sleep(0.01)
            events = recorder.events()
            await gateway.shutdown(drain=True)
            await cluster.stop()
            return events

        events = asyncio.run(scenario())
        (reply,) = [event for event in events if event["type"] == "reply"]
        assert reply["status"] == "deadline"
        assert "result" not in reply
        report = replay_events(events)
        assert report.ok, report.divergence.format()
        assert report.queries == 1 and report.replies_checked == 0


def record_churn(churn):
    """Record a live run with one churn step: 8 peers (seed 7), 28 inserts,
    ``await churn(cluster)``, then a full-range query from every origin."""

    async def scenario():
        cluster = await LiveCluster(num_peers=8, seed=7).start()
        recorder = FlightRecorder()
        cluster.attach_recorder(recorder)
        gateway = await Gateway(cluster, recorder=recorder).start()
        try:
            session = await LiveSession.connect(*gateway.address, pool=1)
            try:
                for value in range(0, 1000, 36):
                    await session.insert(float(value))
                await churn(cluster)
                for origin in sorted(cluster.network.peer_ids()):
                    reply = await session.range(0.0, 1000.0, origin=origin)
                    assert len(reply.result.matches) == 28
            finally:
                await session.close()
        finally:
            await gateway.shutdown(drain=True)
            await cluster.stop()
        return recorder.events()

    return asyncio.run(scenario())


async def join_one(cluster):
    await cluster.join_peer()


async def leave_one(cluster):
    await cluster.leave_peer(sorted(cluster.network.peer_ids())[-1])


class TestChurnReplay:
    @pytest.mark.parametrize("churn, peers", [(join_one, 9), (leave_one, 7)], ids=["join", "leave"])
    def test_a_recorded_join_or_leave_replays_clean(self, churn, peers):
        events = record_churn(churn)
        report = replay_events(events)
        assert report.ok, report.divergence.format()
        assert report.replies_checked == report.queries == peers
        assert report.undelivered == 0

    def test_a_join_placing_another_peer_diverges_at_the_join(self):
        events = record_churn(join_one)
        (join,) = [ev for ev in events if ev["type"] == "gossip" and ev["event"] == "join"]
        join["peer"] += "0"
        report = replay_events(events)
        assert not report.ok
        assert report.divergence.seq == join["seq"]
        assert "join" in report.divergence.reason


class TestTamperDetection:
    def test_edited_field_diverges_at_exactly_that_seq(self, tmp_path):
        _, events = record_soak(tmp_path)
        target = next(
            ev
            for ev in events
            if ev["type"] == "deliver" and ev["frame"].get("hop", 0) >= 2
        )
        target["frame"]["hop"] = 41
        report = replay_events(replayable(events))
        assert not report.ok
        assert report.divergence.seq == target["seq"]
        assert report.divergence.event_type == "deliver"
        assert "hop" in report.divergence.details

    def test_deleted_delivery_diverges_at_the_dependent_event(self, tmp_path):
        _, events = record_soak(tmp_path)
        victim = next(ev for ev in events if ev["type"] == "deliver")
        qid = victim["frame"]["query_id"]
        kind = victim["frame"]["kind"]
        pruned = [ev for ev in events if ev is not victim]
        report = replay_events(replayable(pruned))
        assert not report.ok
        # The missing delivery surfaces at the first event that needed it:
        # a later delivery of a child send, or the query's recorded reply.
        assert report.divergence.event_type in ("deliver", "reply")
        assert report.divergence.details.get("query_id", qid) == qid or kind

    def test_tamper_survives_a_dump_rewrite(self, tmp_path):
        """Same detection when the edit goes through dump files on disk —
        the workflow a human debugging a dump actually uses."""
        _, events = record_soak(tmp_path)
        target = next(ev for ev in events if ev["type"] == "deliver")
        target["frame"]["receiver"] = "999"
        edited = tmp_path / "edited.dump"
        write_dump(events, str(edited))
        result = postmortem.run(postmortem.PostmortemSpec(dumps=(str(edited),)))
        assert not result.ok
        assert result.report.divergence.seq == target["seq"]
        assert "DIVERGED" in result.format()


class TestPostmortemCommand:
    def test_kill_peer_failure_writes_dump_that_replays_clean(self, tmp_path):
        result, events = record_soak(
            tmp_path, queries=40, postmortem_on_fail=True, kill_peer=True
        )
        # The forced failure: the victim's subtree is genuinely lost.
        assert result.report.success_ratio < 1.0
        assert result.stats["postmortem"]["reason"] == "postmortem"
        # The one victim rule: the lever kills the victim a one-victim drill
        # draws from the boot PeerIDs ...
        boot = ArmadaSystem(num_peers=8, seed=11).network.peer_ids()
        drawn = FaultDrill(peers=8, seed=11, fraction=1 / 8).pick_victims(boot)
        assert result.killed == drawn
        (crash,) = [ev for ev in events if ev["type"] == "fault"]
        assert (crash["action"], crash["peer"]) == ("crash", drawn[0])
        # ... at the drill's one kill point: exactly k = int(40 × 0.25)
        # queries had completed at the client when it died.
        completed_before = [
            record for record in result.report.completed if record.completed_at <= crash["ts"]
        ]
        assert len(completed_before) == int(40 * 0.25) == 10
        # A lossy run whose kill lands mid-run still replays divergence-free:
        # the recorded drops and fault events reproduce the same partial results.
        report = replay_events(replayable(events))
        assert report.ok, report.divergence.format()
        assert report.faults >= 1

    def test_postmortem_on_fail_keeps_healthy_runs_dump_free(self, tmp_path):
        spec = replace(
            SOAK,
            peers=8,
            nodes=2,
            queries=10,
            objects=20,
            concurrency=2,
            seed=11,
            record_dir=str(tmp_path),
            postmortem_on_fail=True,
        )
        result = asyncio.run(run_async(spec))
        assert result.report.success_ratio == 1.0
        assert "postmortem" not in result.stats
        assert not (tmp_path / "flight.dump").exists()

    def test_postmortem_merges_overlapping_dumps(self, tmp_path):
        _, events = record_soak(tmp_path)
        stream = replayable(events)
        half = len(stream) // 2
        # Two overlapping windows of the same recording, one trailer each.
        write_dump(stream[: half + 10] + [events[-1]], str(tmp_path / "a.dump"))
        write_dump(stream[half - 10 :] + [events[-1]], str(tmp_path / "b.dump"))
        result = postmortem.run(
            postmortem.PostmortemSpec(
                dumps=(str(tmp_path / "a.dump"), str(tmp_path / "b.dump"))
            )
        )
        assert result.ok
        assert result.report.replies_checked == 30

    def test_format_includes_timeline_when_asked(self, tmp_path):
        _, events = record_soak(tmp_path)
        result = postmortem.run(
            postmortem.PostmortemSpec(
                dumps=(str(tmp_path / "flight.dump"),), timeline=True
            )
        )
        text = result.format()
        assert "no divergence" in text
        assert "timeline:" in text
        assert "query" in text

    def test_spec_needs_at_least_one_dump(self):
        with pytest.raises(ValueError):
            postmortem.PostmortemSpec(dumps=())
