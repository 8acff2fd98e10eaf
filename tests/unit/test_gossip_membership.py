"""Unit tests: the gossip membership table and incarnation refutation."""

from __future__ import annotations

from repro.gossip import (
    ALIVE,
    DEAD,
    LEFT,
    SUSPECT,
    GossipSim,
    MemberEntry,
    MembershipTable,
    SwimConfig,
)

#: brisk protocol timing so refutation scenarios settle in a few sim seconds
FAST = SwimConfig(
    interval=0.05, ping_timeout=0.05, indirect_timeout=0.08, suspicion_timeout=0.3
)


class TestMembershipTable:
    def test_apply_and_lookup(self):
        table = MembershipTable()
        assert table.apply("P0", ALIVE, 0, ("h", 1)) is True
        assert table.state_of("P0") == ALIVE
        assert table.address_of("P0") == ("h", 1)
        assert table.alive_ids() == ["P0"]

    def test_higher_incarnation_always_wins(self):
        table = MembershipTable()
        table.apply("P0", DEAD, 3)
        # A fresher incarnation revives the entry even from DEAD...
        assert table.apply("P0", ALIVE, 4) is True
        assert table.state_of("P0") == ALIVE
        # ...and a stale rumor at an older incarnation is absorbed.
        assert table.apply("P0", SUSPECT, 2) is False
        assert table.state_of("P0") == ALIVE

    def test_equal_incarnation_pessimism_wins(self):
        table = MembershipTable()
        table.apply("P0", ALIVE, 5)
        assert table.apply("P0", SUSPECT, 5) is True
        assert table.apply("P0", ALIVE, 5) is False  # alive can't un-suspect
        assert table.apply("P0", DEAD, 5) is True
        assert table.state_of("P0") == DEAD

    def test_left_is_as_final_as_dead(self):
        table = MembershipTable()
        table.apply("P0", ALIVE, 2)
        assert table.apply("P0", LEFT, 2) is True
        assert table.apply("P0", SUSPECT, 2) is False
        assert table.ids_in(LEFT) == ["P0"]

    def test_recycled_peer_id_needs_a_fresh_incarnation(self):
        # Churn recycles PeerIDs: after P0 leaves, a relocated peer adopts
        # the id.  Announcing it at incarnation 0 must NOT resurrect it —
        # only an incarnation past the tombstone's does.
        table = MembershipTable()
        table.apply("P0", LEFT, 1)
        assert table.apply("P0", ALIVE, 0) is False
        assert table.state_of("P0") == LEFT
        assert table.apply("P0", ALIVE, 2, ("h", 9)) is True
        assert table.state_of("P0") == ALIVE
        assert table.address_of("P0") == ("h", 9)

    def test_digest_round_trips_through_merge(self):
        table = MembershipTable()
        table.apply("P0", ALIVE, 1, ("a", 1))
        table.apply("P1", SUSPECT, 0)
        table.apply("P2", DEAD, 2)
        other = MembershipTable()
        changed = other.merge(table.digest())
        assert sorted(peer for peer, _state in changed) == ["P0", "P1", "P2"]
        assert other.liveness_view() == table.liveness_view()
        # Re-merging the same digest is a no-op.
        assert other.merge(table.digest()) == []

    def test_entry_wire_round_trip(self):
        entry = MemberEntry("P3", SUSPECT, 7, ("host", 1234), version=9)
        decoded = MemberEntry.from_wire(entry.to_wire())
        assert (decoded.peer_id, decoded.state, decoded.incarnation) == ("P3", SUSPECT, 7)
        assert decoded.address == ("host", 1234)

    def test_digest_limit_keeps_freshest(self):
        table = MembershipTable()
        for index in range(10):
            table.apply(f"P{index}", ALIVE, 0)
        table.apply("P7", SUSPECT, 0)  # freshest version
        digest = table.digest(limit=3)
        assert len(digest) == 3
        assert digest[0][0] == "P7"

    def test_counts_and_liveness_view(self):
        table = MembershipTable()
        table.apply("P0", ALIVE, 0)
        table.apply("P1", SUSPECT, 0)
        table.apply("P2", DEAD, 0)
        table.apply("P3", LEFT, 0)
        assert table.counts() == {"alive": 1, "suspect": 1, "dead": 1, "left": 1}
        alive, dead = table.liveness_view()
        assert alive == ("P0", "P1")  # suspects still count as maybe-up
        assert dead == ("P2", "P3")

    def test_on_change_fires_only_on_transitions(self):
        table = MembershipTable()
        seen = []
        table.on_change(lambda peer, old, new, entry: seen.append((peer, old, new)))
        table.apply("P0", ALIVE, 0)
        table.apply("P0", ALIVE, 1)  # refresh, same state: no notification
        table.apply("P0", SUSPECT, 1)
        assert seen == [("P0", None, ALIVE), ("P0", ALIVE, SUSPECT)]


class TestIncarnationRefutation:
    def test_falsely_suspected_peer_never_flaps_dead(self):
        """A live peer rumored SUSPECT must refute and never reach DEAD."""
        sim = GossipSim(nodes=4, seed=11, config=FAST)
        sim.start()
        sim.run(until=1.0)
        died = []
        for agent in sim.nodes.values():
            agent.table.on_change(
                lambda peer, old, new, entry: died.append(peer)
                if peer == "P0" and new == DEAD
                else None
            )
        # Plant the false rumor everywhere except P0's own host: the
        # suspicion clock is now ticking on three independent views.
        for node_id, agent in sim.nodes.items():
            if "P0" not in sim.hosted[node_id]:
                agent.table.apply("P0", SUSPECT, 0)
        sim.run(until=6.0)
        assert died == [], "a live peer was declared dead despite refutation"
        for view in sim.surviving_views():
            assert view.state_of("P0") == ALIVE
            # The refutation rode a bumped incarnation.
            assert view.get("P0").incarnation >= 1

    def test_left_rumor_about_live_tenant_is_refuted(self):
        """LEFT counts as a rumor too: churn recycles PeerIDs, so a live
        hosted tenant must out-announce a stale departure record."""
        sim = GossipSim(nodes=3, seed=5, config=FAST)
        sim.start()
        sim.run(until=1.0)
        for node_id, agent in sim.nodes.items():
            if "P1" not in sim.hosted[node_id]:
                agent.table.apply("P1", LEFT, 0)
        sim.run(until=6.0)
        for view in sim.surviving_views():
            assert view.state_of("P1") == ALIVE

    def test_crashed_peer_is_detected_dead(self):
        """The control case: a genuinely dead peer cannot refute."""
        sim = GossipSim(nodes=4, seed=3, config=FAST)
        sim.start()
        sim.run(until=1.0)
        victims = sim.crash("node-2")
        when = sim.run_until_converged(expect_dead=victims, timeout=30.0)
        assert when is not None, "views never converged on the crash"
        for view in sim.surviving_views():
            for victim in victims:
                assert view.state_of(victim) == DEAD
