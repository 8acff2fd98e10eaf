"""Unit tests for the ``storenode`` request handler, driven in-process.

The SIGKILL tests in ``tests/integration/test_storage_recovery.py`` drive
the same server as a real subprocess; these call
:meth:`StoreNodeServer._handle` directly, so each op's reply shape is
checked without a socket or a child process.
"""

from __future__ import annotations

import pytest

from repro.runtime.protocol import Hangup
from repro.runtime.storenode import StoreNodeServer, main
from repro.wire import encode_value


def serve(tmp_path, sync_mode="always"):
    return StoreNodeServer(str(tmp_path / "peer.wal"), sync_mode=sync_mode)


def test_put_then_get_round_trips_tuple_keys(tmp_path):
    server = serve(tmp_path)
    reply = server._handle(
        {"op": "put", "object_id": "0120", "key": encode_value((1.0, 2.0)),
         "value": encode_value(("a", 3))},
        b"",
    )
    assert reply == {"ok": True, "synced": True}
    reply = server._handle({"op": "get", "object_id": "0120"}, b"")
    assert reply == {
        "ok": True,
        "objects": [[encode_value((1.0, 2.0)), encode_value(("a", 3))]],
    }
    server.store.close()


def test_count_and_digest_report_the_store(tmp_path):
    server = serve(tmp_path)
    for object_id in ("0101", "0102", "0210"):
        server._handle({"op": "put", "object_id": object_id, "key": 1.0}, b"")
    assert server._handle({"op": "count"}, b"") == {"ok": True, "objects": 3}
    assert server._handle({"op": "digest"}, b"")["digest"] == server.store.digest()
    assert server._handle({"op": "digest", "prefix": "01"}, b"")["digest"] == (
        server.store.digest("01")
    )
    server.store.close()


def test_manual_mode_acks_unsynced_until_sync(tmp_path):
    server = serve(tmp_path, sync_mode="manual")
    reply = server._handle({"op": "put", "object_id": "0101", "key": 1.0}, b"")
    assert reply == {"ok": True, "synced": False}
    server.store.power_fail()
    assert server.store.replay() == 0  # the unsynced put was never acknowledged
    server._handle({"op": "put", "object_id": "0101", "key": 1.0}, b"")
    assert server._handle({"op": "sync"}, b"") == {"ok": True}
    server.store.power_fail()
    assert server.store.replay() == 1
    server.store.close()


def test_a_restarted_node_replays_its_log(tmp_path):
    server = serve(tmp_path)
    for index in range(4):
        server._handle({"op": "put", "object_id": f"obj{index}", "key": float(index)}, b"")
    digest = server.store.digest()
    server.store.close()
    restarted = serve(tmp_path)
    assert restarted.replayed == 4
    assert restarted.store.digest() == digest
    restarted.store.close()


def test_ping_unknown_op_and_quit(tmp_path):
    server = serve(tmp_path)
    assert server._handle({"op": "ping"}, b"") == {"ok": True}
    assert server._handle({"op": "scan"}, b"") == {"ok": False, "error": "unknown op 'scan'"}
    with pytest.raises(Hangup):
        server._handle({"op": "quit", "rid": 7}, b"")
    assert server._quit.is_set()
    server.store.close()


@pytest.mark.parametrize("argv", [["--backend", "wal"], ["--sync-mode", "never"]])
def test_unknown_flags_are_argparse_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(["--path", str(tmp_path / "peer.wal"), *argv])
    assert excinfo.value.code == 2
    assert not (tmp_path / "peer.wal").exists()
