"""Unit tests for the fault models, injector and plan (`repro.faults`)."""

from __future__ import annotations

import pytest

from repro.core.armada import ArmadaSystem
from repro.faults import (
    Bisection,
    CrashRecover,
    CrashStop,
    Duplicate,
    ExtraDelay,
    FaultInjector,
    FaultPlan,
    GilbertLoss,
    IidLoss,
)
from repro.sim.network import Message, OverlayNetwork


class Recorder:
    """A trivial overlay node that records its deliveries."""

    def __init__(self, node_id: str) -> None:
        self.node_id = node_id
        self.received = []

    def handle_message(self, network, message) -> None:
        self.received.append(message)


def build_overlay(n: int = 10):
    overlay = OverlayNetwork()
    nodes = [Recorder(f"n{i}") for i in range(n)]
    for node in nodes:
        overlay.register(node)
    return overlay, nodes


def flood(overlay, nodes, count: int, query_id=None):
    """Send ``count`` messages around the ring and drain the simulator."""
    for index in range(count):
        sender = nodes[index % len(nodes)]
        receiver = nodes[(index + 1) % len(nodes)]
        overlay.send(
            Message(
                sender=sender.node_id,
                receiver=receiver.node_id,
                kind="test",
                query_id=query_id,
            )
        )
    overlay.run()


class TestModelValidation:
    def test_probability_bounds_enforced(self):
        with pytest.raises(ValueError):
            IidLoss(probability=1.5)
        with pytest.raises(ValueError):
            Duplicate(probability=-0.1)
        with pytest.raises(ValueError):
            GilbertLoss(p_bad=2.0)
        with pytest.raises(ValueError):
            ExtraDelay(probability=0.5, mean_extra=0.0)
        with pytest.raises(ValueError):
            CrashStop(fraction=1.5)
        with pytest.raises(ValueError):
            CrashRecover(fraction=0.1, downtime=0.0)
        with pytest.raises(ValueError):
            Bisection(duration=0.0)


class TestIidLoss:
    def test_loss_rate_close_to_probability(self):
        overlay, nodes = build_overlay()
        FaultInjector(overlay, [IidLoss(0.3)], seed=11).install()
        flood(overlay, nodes, 2000)
        dropped = overlay.drops_by_reason.get("loss", 0)
        assert 450 <= dropped <= 750  # 600 expected, generous band

    def test_same_seed_same_drops(self):
        def run(seed):
            overlay, nodes = build_overlay()
            FaultInjector(overlay, [IidLoss(0.2)], seed=seed).install()
            flood(overlay, nodes, 500)
            return overlay.drops_by_reason.get("loss", 0)

        assert run(7) == run(7)
        assert run(7) != run(8) or run(7) != run(9)  # seeds actually matter


class TestGilbertLoss:
    def test_burstier_than_iid_at_equal_rate(self):
        """With loss_bad=1, drops arrive in runs: consecutive-drop pairs are
        far more common than under i.i.d. loss of the same overall rate."""
        def consecutive_pairs(model, seed):
            overlay, nodes = build_overlay()
            dropped_flags = []
            injector = FaultInjector(overlay, [model], seed=seed)
            injector.install()
            before = 0
            for index in range(2000):
                overlay.send(
                    Message(
                        sender=nodes[index % 10].node_id,
                        receiver=nodes[(index + 1) % 10].node_id,
                        kind="test",
                    )
                )
                after = overlay.messages_dropped
                dropped_flags.append(after > before)
                before = after
            overlay.run()
            pairs = sum(
                1 for a, b in zip(dropped_flags, dropped_flags[1:]) if a and b
            )
            rate = sum(dropped_flags) / len(dropped_flags)
            return pairs, rate

        gilbert_pairs, gilbert_rate = consecutive_pairs(
            GilbertLoss(p_bad=0.02, p_good=0.25), seed=3
        )
        iid_pairs, iid_rate = consecutive_pairs(IidLoss(gilbert_rate), seed=3)
        assert gilbert_pairs > 2 * max(1, iid_pairs)

    def test_mean_burst_length_about_inverse_p_good(self):
        overlay, nodes = build_overlay()
        FaultInjector(overlay, [GilbertLoss(p_bad=0.05, p_good=0.5)], seed=5).install()
        flood(overlay, nodes, 3000)
        dropped = overlay.drops_by_reason.get("burst-loss", 0)
        assert dropped > 0


class TestExtraDelayAndDuplicate:
    def test_extra_delay_reorders(self):
        overlay, nodes = build_overlay(2)
        FaultInjector(overlay, [ExtraDelay(probability=0.5, mean_extra=5.0)], seed=2).install()
        for index in range(50):
            overlay.send(
                Message(
                    sender=nodes[0].node_id,
                    receiver=nodes[1].node_id,
                    kind="test",
                    send=index,
                )
            )
        overlay.run()
        order = [message.send for message in nodes[1].received]
        assert len(order) == 50
        assert order != sorted(order)  # delayed messages arrived late

    def test_duplicate_delivers_extra_copies(self):
        overlay, nodes = build_overlay(2)
        FaultInjector(overlay, [Duplicate(probability=1.0)], seed=2).install()
        for _ in range(10):
            overlay.send(
                Message(sender=nodes[0].node_id, receiver=nodes[1].node_id, kind="test")
            )
        overlay.run()
        assert len(nodes[1].received) == 20
        assert overlay.messages_duplicated == 10


class TestCrash:
    def test_crash_stop_blocks_sends_and_inflight(self):
        overlay, nodes = build_overlay(3)
        injector = FaultInjector(
            overlay, [CrashStop(peer_ids=[nodes[1].node_id], at=5.0)], seed=1
        )
        injector.install()
        # In flight across the crash instant: scheduled before, lands after.
        overlay.simulator.schedule_at(
            4.5,
            lambda: overlay.send(
                Message(sender=nodes[0].node_id, receiver=nodes[1].node_id, kind="test")
            ),
        )
        overlay.run()
        assert injector.is_down(nodes[1].node_id)
        assert nodes[1].received == []  # delivery at 5.5 was suppressed
        # Sends after the crash are dropped at send time.
        overlay.send(Message(sender=nodes[0].node_id, receiver=nodes[1].node_id, kind="test"))
        overlay.run()
        assert nodes[1].received == []

    def test_crash_fraction_samples_deterministically(self):
        def downs(seed):
            overlay, _nodes = build_overlay(20)
            injector = FaultInjector(overlay, [CrashStop(fraction=0.25)], seed=seed)
            injector.install()
            overlay.run(until=0.0)
            return sorted(injector.down_ids)

        assert len(downs(4)) == 5
        assert downs(4) == downs(4)

    def test_crash_recover_comes_back(self):
        overlay, nodes = build_overlay(3)
        injector = FaultInjector(
            overlay,
            [CrashRecover(peer_ids=[nodes[1].node_id], at=1.0, downtime=10.0)],
            seed=1,
        )
        injector.install()
        overlay.run(until=2.0)
        assert injector.is_down(nodes[1].node_id)
        overlay.run(until=12.0)
        assert not injector.is_down(nodes[1].node_id)
        overlay.send(Message(sender=nodes[0].node_id, receiver=nodes[1].node_id, kind="test"))
        overlay.run()
        assert len(nodes[1].received) == 1

    def test_down_ids_are_the_crashed(self):
        overlay, nodes = build_overlay(4)
        injector = FaultInjector(overlay, [CrashStop(peer_ids=[nodes[0].node_id])], seed=1)
        injector.install()
        overlay.run(until=0.0)
        assert injector.down_ids == {nodes[0].node_id}
        assert sum(not injector.is_down(node_id) for node_id in overlay.node_ids()) == 3


class TestCrashRecoverStorage:
    """Regression: recovery is a *power-fail and replay*, not a nap.

    ``CrashRecover`` used to bring a peer back with its in-memory dict
    intact — state that a real killed process could never keep.  The model
    now routes through :meth:`FaultInjector.power_fail` /
    :meth:`FaultInjector.replay`, so a memory-backed peer recovers empty
    and a WAL-backed peer recovers exactly its synced writes.
    """

    def build_peer_overlay(self, backend=None):
        from repro.fissione.peer import FissionePeer

        overlay = OverlayNetwork()
        peer = (
            FissionePeer(peer_id="0101")
            if backend is None
            else FissionePeer(peer_id="0101", backend=backend)
        )
        peer.backend.put("010101", key=1.0, value=10.0)
        peer.backend.sync()
        overlay.register(peer)
        return overlay, peer

    def run_crash_recover(self, overlay, peer):
        injector = FaultInjector(
            overlay,
            [CrashRecover(peer_ids=[peer.peer_id], at=1.0, downtime=5.0)],
            seed=1,
        )
        injector.install()
        overlay.run(until=2.0)
        assert injector.is_down(peer.peer_id)
        assert peer.object_count() == 0  # volatile state died with the crash
        overlay.run(until=10.0)
        assert not injector.is_down(peer.peer_id)
        return injector

    def test_memory_backed_peer_recovers_empty(self):
        overlay, peer = self.build_peer_overlay()
        self.run_crash_recover(overlay, peer)
        assert peer.object_count() == 0  # no resurrection of lost state
        assert peer.get("010101") == []

    def test_wal_backed_peer_recovers_synced_writes(self, tmp_path):
        from repro.storage import WALStore

        backend = WALStore(str(tmp_path / "peer.wal"))
        overlay, peer = self.build_peer_overlay(backend)
        digest = peer.backend.digest()
        self.run_crash_recover(overlay, peer)
        assert peer.object_count() == 1
        assert peer.backend.digest() == digest
        assert [s.value for s in peer.get("010101")] == [10.0]
        backend.close()

    def test_injector_power_fail_and_replay_hooks(self):
        """The injector-level primitives drive the node hooks directly."""
        overlay, peer = self.build_peer_overlay()
        injector = FaultInjector(overlay, [], seed=1)
        injector.install()
        injector.power_fail(peer.peer_id)
        assert injector.is_down(peer.peer_id)
        assert peer.object_count() == 0
        assert injector.replay(peer.peer_id) == 0  # memory: nothing to replay
        assert not injector.is_down(peer.peer_id)

    def test_hooks_optional_for_plain_nodes(self):
        """Recorder nodes (no storage hooks) still crash and recover."""
        overlay, nodes = build_overlay(3)
        injector = FaultInjector(overlay, [], seed=1)
        injector.install()
        injector.power_fail(nodes[1].node_id)
        assert injector.is_down(nodes[1].node_id)
        assert injector.replay(nodes[1].node_id) == 0
        assert not injector.is_down(nodes[1].node_id)


class TestBisection:
    def test_cross_cut_dropped_within_side_delivered(self):
        overlay, nodes = build_overlay(10)
        model = Bisection(at=0.0, duration=100.0)
        FaultInjector(overlay, [model], seed=6).install()
        overlay.run(until=0.0)
        side_a = model._side_a
        assert len(side_a) == 5
        a = next(n for n in nodes if n.node_id in side_a)
        b = next(n for n in nodes if n.node_id not in side_a)
        a2 = next(n for n in nodes if n.node_id in side_a and n is not a)
        overlay.send(Message(sender=a.node_id, receiver=b.node_id, kind="test"))
        overlay.send(Message(sender=a.node_id, receiver=a2.node_id, kind="test"))
        overlay.run(until=50.0)
        assert b.received == []
        assert len(a2.received) == 1

    def test_partition_heals(self):
        overlay, nodes = build_overlay(10)
        model = Bisection(at=0.0, duration=10.0)
        FaultInjector(overlay, [model], seed=6).install()
        overlay.run(until=20.0)
        flood(overlay, nodes, 40)
        assert sum(len(n.received) for n in nodes) == 40


class TestComposition:
    def test_composed_plan_is_deterministic(self):
        """Crash + loss composed: two identically-seeded runs drop the same
        number of messages (all models are consulted for every message, so
        neither model's stream depends on the other's verdicts)."""
        def run():
            overlay, nodes = build_overlay(4)
            FaultInjector(
                overlay, [CrashStop(peer_ids=[nodes[1].node_id]), IidLoss(0.5)], seed=9
            ).install()
            overlay.run(until=0.0)
            flood(overlay, nodes, 100)
            return overlay.messages_dropped

        first = run()
        assert first > 25  # crashes plus ~half the rest
        assert run() == first


class TestFaultPlan:
    def test_empty_plan_installs_nothing(self):
        overlay, _nodes = build_overlay()
        assert FaultPlan.empty().install(overlay) is None
        assert overlay.fault_injector is None

    def test_non_empty_plan_installs_injector(self):
        overlay, _nodes = build_overlay()
        injector = FaultPlan([IidLoss(0.1)], seed=3).install(overlay)
        assert overlay.fault_injector is injector

    def test_describe(self):
        plan = FaultPlan([CrashStop(fraction=0.1, at=2.0), IidLoss(0.05)], seed=4)
        text = plan.describe()
        assert "crash(fraction=0.1, at=2.0)" in text
        assert "loss(p=0.05)" in text
        assert "[seed 4]" in text
        assert FaultPlan.empty().describe() == "no faults"

    def test_add_is_fluent(self):
        plan = FaultPlan.empty().add(IidLoss(0.1)).add(Duplicate(0.2))
        assert len(plan.models) == 2
        assert not plan.is_empty()

    def test_plan_reuse_resets_model_runtime_state(self):
        """Installing the same plan on a fresh overlay must not carry an
        active partition (or a Gilbert burst) over from the previous run."""
        plan = FaultPlan([Bisection(at=5.0, duration=100.0)], seed=6)

        overlay_a, nodes_a = build_overlay(10)
        plan.install(overlay_a)
        overlay_a.run(until=10.0)  # partition is now active on overlay A
        assert plan.models[0]._active

        overlay_b, nodes_b = build_overlay(10)
        plan.install(overlay_b)
        assert not plan.models[0]._active  # reset at bind time
        # Before t=5 on overlay B nothing may be dropped.
        flood(overlay_b, nodes_b, 40)
        assert overlay_b.messages_dropped == 0


class TestQueryDropLedger:
    """A lost message is charged to the query that sent it through the
    message's ``on_drop`` hook, which the query executors set on every send."""

    def test_drops_counted_per_query_without_callback(self, drop_when):
        """The caller installs no callback: each query's resilience ledger
        holds its own losses, and together they are the overlay's drops."""
        system = ArmadaSystem(num_peers=64, seed=3, attribute_interval=(0.0, 1000.0))
        drop_when(system.overlay, lambda message: True)
        first = system.range_query(100.0, 300.0)
        second = system.range_query(600.0, 700.0)
        assert first.resilience.drops == first.messages > 0
        assert second.resilience.drops == second.messages > 0
        assert system.overlay.messages_dropped == first.messages + second.messages

    def test_undeliverable_also_counted(self):
        overlay, nodes = build_overlay(3)
        charged = []
        overlay.send(
            Message(
                sender=nodes[0].node_id,
                receiver=nodes[1].node_id,
                kind="q",
                query_id=1,
                on_drop=lambda message: charged.append(message.query_id),
            )
        )
        overlay.unregister(nodes[1].node_id)
        overlay.run()
        assert charged == [1]
        assert overlay.messages_undeliverable == 1
