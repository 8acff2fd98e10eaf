"""``storenode`` — one durable store behind a TCP socket, as a process.

This is the smallest unit of the live storage stack that can genuinely be
killed with ``SIGKILL``: a single :class:`~repro.storage.wal.WALStore`
served over the runtime's length-framed JSON protocol by its own OS
process.  The crash-consistency integration tests drive it like a
client, ``kill -9`` the process mid-write, restart it on the same log
file, and assert that every acknowledged ``put`` survived and the
content-addressed digest matches — no cooperation from the dying process
required, which is exactly the point.

Run it as a module::

    python -m repro.runtime.storenode --path /tmp/peer.wal

On startup it replays the log, binds an ephemeral port, and prints one
JSON line to stdout — ``{"port": N, "replayed": K}`` — so a parent
process can connect without racing the bind.  The request vocabulary
(every request carries an ``"rid"``, every reply echoes it):

===========  =====================================  =========================
op           request fields                         reply fields
===========  =====================================  =========================
``put``      ``object_id``, ``key``, ``value``      ``ok``, ``synced``
``sync``     —                                      ``ok``
``get``      ``object_id``                          ``ok``, ``objects``
``digest``   ``prefix`` (optional)                  ``ok``, ``digest``
``count``    —                                      ``ok``, ``objects``
``ping``     —                                      ``ok``
``quit``     —                                      ``ok`` (then exits)
===========  =====================================  =========================

Keys and values travel through :func:`repro.wire.encode_value` /
:func:`~repro.wire.decode_value` so tuples round-trip through JSON.  A
``put`` is acknowledged only after the record is durably synced (unless
the node was started with ``--sync-mode manual``, in which case ``synced``
is ``False`` until an explicit ``sync`` — the tests use manual mode to
build torn, partially-acknowledged logs on purpose).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from typing import Any, Dict

from repro.runtime.protocol import FrameServer, Hangup
from repro.storage import WALStore
from repro.wire import decode_value, encode_value


class StoreNodeServer:
    """Serve one WAL over length-framed JSON requests."""

    def __init__(self, path: str, sync_mode: str = "always") -> None:
        self.store = WALStore(path, sync_mode=sync_mode)
        self.sync_mode = sync_mode
        self.replayed = self.store.replay()
        self._server: asyncio.base_events.Server | None = None
        self._quit = asyncio.Event()

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        self._server = await asyncio.get_running_loop().create_server(
            lambda: FrameServer(self._handle), host, port
        )
        return self._server.sockets[0].getsockname()[1]

    async def wait_quit(self) -> None:
        await self._quit.wait()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.store.close()

    # ------------------------------------------------------------------ #
    # request handling                                                     #
    # ------------------------------------------------------------------ #

    def _handle(self, frame: Dict[str, Any], body: bytes) -> Dict[str, Any]:
        op = frame.get("op")
        if op == "put":
            self.store.put(
                frame["object_id"],
                key=decode_value(frame["key"]),
                value=decode_value(frame.get("value")),
            )
            synced = self.sync_mode == "always"
            return {"ok": True, "synced": synced}
        if op == "sync":
            self.store.sync()
            return {"ok": True}
        if op == "get":
            objects = self.store.get(frame["object_id"])
            return {
                "ok": True,
                "objects": [
                    [encode_value(stored.key), encode_value(stored.value)]
                    for stored in objects
                ],
            }
        if op == "digest":
            return {"ok": True, "digest": self.store.digest(frame.get("prefix", ""))}
        if op == "count":
            return {"ok": True, "objects": self.store.object_count()}
        if op == "ping":
            return {"ok": True}
        if op == "quit":
            self._quit.set()
            raise Hangup({"type": "reply", "rid": frame.get("rid"), "ok": True, "quit": True})
        return {"ok": False, "error": f"unknown op {op!r}"}


async def _amain(args: argparse.Namespace) -> int:
    server = StoreNodeServer(args.path, sync_mode=args.sync_mode)
    port = await server.start(args.host, args.port)
    print(json.dumps({"port": port, "replayed": server.replayed}), flush=True)
    await server.wait_quit()
    await server.stop()
    return 0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(
        prog="storenode", description="serve one WAL over TCP"
    )
    parser.add_argument("--path", required=True, help="WAL file")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--sync-mode", choices=("always", "manual"), default="always")
    args = parser.parse_args(argv)
    return asyncio.run(_amain(args))


if __name__ == "__main__":
    sys.exit(main())
