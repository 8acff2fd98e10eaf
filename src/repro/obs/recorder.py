"""Flight recorder: an always-on bounded ring buffer of runtime events.

The live runtime (PR 4/5) is byte-equivalent to the simulator, which means
a recorded execution can be *re-executed* after the fact.  The recorder is
the capture half of that bargain: every wire frame in and out (gateway
queries/replies, transport sends and drops, peer frame arrivals), every
timer fire, fault-injector action and store sync is appended to a bounded
in-process ring as a small structured event carrying a global **sequence
number** and a ``time.monotonic()`` timestamp.  Because the runtime is a
single asyncio loop, the sequence order *is* the true interleaving — which
is exactly what :mod:`repro.obs.replay` needs to re-execute the PIRA/MIRA
handlers deterministically.

Recording is designed to be cheap enough to leave on in production: the
hot path is one clock read, one tuple and one ``deque.append``, and the
high-volume taps retain *already-existing wire bytes* (GC-inert, never
re-encoded) rather than decoded object graphs — events are only decoded
and binframe-encoded when a dump is written.  The ring is
bounded (``capacity`` events, oldest evicted first) so a long soak cannot
grow without bound; the number of evicted events is reported in the dump
trailer so post-mortem tooling knows when the window was clipped.

Dump format (``.dump`` files)::

    ARFR3\\n                       # magic + version (3: typed columns)
    [4-byte BE length][binframe]   # one record per event, in seq order
    ...                            # last record is a synthetic "dump"
                                   # trailer: reason, totals, evictions

A recorded ``reply`` holds the bytes the connection wrote, so the version
moves whenever the reply's wire form does: ``ARFR2`` files spell a float
column as JSON text, ``ARFR1`` files spell matches as rows, and replaying
either would report every query as diverged — :func:`load_dump` refuses
them in one line instead (a dump is a post-mortem artefact, not an archive).

Dumps are triggered on demand (``SIGUSR1``), on unhandled exception (a
chained ``sys.excepthook``), and by the serving/soak entry points on
shutdown or failed runs (``--record-dir`` / ``--postmortem-on-fail``).
"""

from __future__ import annotations

import itertools
import json
import os
import signal
import sys
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional

from repro.binframe import encode_binary, decode_binary
from repro.obs.logs import get_logger

#: dump file header: magic + format version, newline-terminated
DUMP_MAGIC = b"ARFR3\n"

#: magics of earlier reply wire forms, and what each file predates
_OLDER_DUMPS = {b"ARFR1\n": "the column wire form", b"ARFR2\n": "typed columns"}

_LOG = get_logger("obs.recorder")


class DumpError(RuntimeError):
    """Raised when a dump file is missing, truncated or corrupt."""


class FlightRecorder:
    """Bounded in-process event ring with on-demand binary dumps.

    ``record()`` is called from the runtime's hottest paths (every
    transport send, every delivered frame), so it does no encoding — the
    field dict is appended raw inside a ``(seq, ts, type, fields)`` tuple
    and serialised lazily by :meth:`dump`.  Field values must therefore be
    JSON/binframe-compatible scalars or the *undecoded wire bytes* the tap
    already holds (``raw`` / ``raw_reply``) — bytes are untracked by the
    cyclic GC, so a full 64k-event ring of them does not inflate
    collection passes the way retained dict/list graphs would.
    :meth:`events` decodes them once, at dump time, off the hot path.
    """

    def __init__(self, capacity: int = 65536, clock: Callable[[], float] = time.monotonic) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._clock = clock
        # The ring holds (seq, ts, type, fields) tuples, not event dicts —
        # the full dict shape is materialised only by events(), keeping the
        # per-record cost to the kwargs dict the caller already paid for.
        self._ring: "deque[tuple]" = deque(maxlen=capacity)
        self._seq = itertools.count(1)
        self.total_recorded = 0
        self.dumps_written = 0
        self._prev_excepthook: Optional[Callable] = None
        self._dump_dir: Optional[str] = None

    # -- capture -------------------------------------------------------------

    def record(self, event_type: str, **fields: Any) -> int:
        """Append one event; returns its global sequence number."""
        seq = next(self._seq)
        self._ring.append((seq, self._clock(), event_type, fields))
        self.total_recorded += 1
        return seq

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def evicted(self) -> int:
        """Events pushed out of the bounded ring (window was clipped)."""
        return self.total_recorded - len(self._ring)

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot of the ring contents as event dicts, oldest first.

        Taps may record a frame as its undecoded wire bytes (``raw``) or a
        gateway response as its encoded write bytes (``raw_reply``) —
        GC-inert retention, decoded here, once, into the
        ``frame``/``result`` fields the replay engine and post-mortem
        tooling consume.
        """
        out: List[Dict[str, Any]] = []
        for seq, ts, event_type, fields in self._ring:
            event: Dict[str, Any] = {"seq": seq, "ts": ts, "type": event_type}
            if "raw" in fields or "raw_reply" in fields:
                for key, value in fields.items():
                    if key == "raw":
                        event["frame"] = json.loads(value)
                    elif key == "raw_reply":
                        # A written gateway response: a length-prefixed
                        # frame {"type": "reply", "payload": {"result": ...}},
                        # or None when the client had gone (no result).
                        if value is not None:
                            event["result"] = json.loads(value[4:])["payload"].get("result")
                    else:
                        event[key] = value
            else:
                event.update(fields)
            out.append(event)
        return out

    # -- dumping -------------------------------------------------------------

    def dump(self, path: Optional[str] = None, reason: str = "manual") -> str:
        """Write the ring to ``path`` (binframe records) and return the path.

        With no explicit ``path`` the dump lands in the directory given to
        :meth:`install` as ``flight-<n>.dump``.  The file ends with a
        synthetic ``dump`` trailer event recording the trigger reason and
        eviction count.
        """
        if path is None:
            if self._dump_dir is None:
                raise ValueError("no dump path given and no dump directory installed")
            path = os.path.join(self._dump_dir, f"flight-{self.dumps_written + 1}.dump")
        events = self.events()
        trailer = {
            "seq": self.total_recorded + 1,
            "ts": self._clock(),
            "type": "dump",
            "reason": reason,
            "events": len(events),
            "evicted": self.evicted,
        }
        write_dump(events + [trailer], path)
        self.dumps_written += 1
        _LOG.info(
            "flight recorder dumped %d events to %s (reason=%s, evicted=%d)",
            len(events),
            path,
            reason,
            self.evicted,
        )
        return path

    # -- triggers ------------------------------------------------------------

    def install(
        self,
        dump_dir: str,
        *,
        handle_signal: bool = True,
        handle_excepthook: bool = True,
    ) -> None:
        """Arm the on-demand and crash dump triggers.

        ``SIGUSR1`` dumps the ring into ``dump_dir`` without disturbing the
        process (where the platform has it); an unhandled exception dumps
        and then defers to the previously installed ``sys.excepthook``.
        """
        self._dump_dir = dump_dir
        os.makedirs(dump_dir, exist_ok=True)
        if handle_signal and hasattr(signal, "SIGUSR1"):
            signal.signal(signal.SIGUSR1, self._on_signal)
        if handle_excepthook and self._prev_excepthook is None:
            self._prev_excepthook = sys.excepthook
            sys.excepthook = self._on_exception

    def uninstall(self) -> None:
        """Detach the excepthook chain installed by :meth:`install`."""
        if self._prev_excepthook is not None and sys.excepthook == self._on_exception:
            sys.excepthook = self._prev_excepthook
        self._prev_excepthook = None

    def _on_signal(self, signum: int, frame: Any) -> None:  # pragma: no cover - signal path
        try:
            self.dump(reason=f"signal-{signum}")
        except OSError:
            _LOG.exception("flight recorder signal dump failed")

    def _on_exception(self, exc_type, exc, tb) -> None:
        self.record(
            "crash",
            error=exc_type.__name__,
            message=str(exc),
        )
        try:
            self.dump(reason="exception")
        except (OSError, ValueError):
            _LOG.exception("flight recorder crash dump failed")
        if self._prev_excepthook is not None:
            self._prev_excepthook(exc_type, exc, tb)


# -- dump file I/O (module-level so tools and tests can edit dumps) ----------


def write_dump(events: List[Dict[str, Any]], path: str) -> None:
    """Write ``events`` (in order) as an ``ARFR3`` dump file."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "wb") as handle:
        handle.write(DUMP_MAGIC)
        for event in events:
            body = encode_binary(event)
            handle.write(len(body).to_bytes(4, "big"))
            handle.write(body)


def load_dump(path: str) -> List[Dict[str, Any]]:
    """Read an ``ARFR3`` dump file back into its event list."""
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as exc:
        raise DumpError(f"cannot read dump {path!r}: {exc}") from exc
    predates = _OLDER_DUMPS.get(blob[: len(DUMP_MAGIC)])
    if predates is not None:
        raise DumpError(f"{path!r} is an {blob[:5].decode()} dump: it predates {predates}")
    if not blob.startswith(DUMP_MAGIC):
        raise DumpError(f"{path!r} is not a flight-recorder dump (bad magic)")
    events: List[Dict[str, Any]] = []
    offset = len(DUMP_MAGIC)
    total = len(blob)
    while offset < total:
        if offset + 4 > total:
            raise DumpError(f"{path!r} truncated in a record length at byte {offset}")
        length = int.from_bytes(blob[offset : offset + 4], "big")
        offset += 4
        if offset + length > total:
            raise DumpError(f"{path!r} truncated mid-record at byte {offset}")
        events.append(decode_binary(blob[offset : offset + length]))
        offset += length
    return events
