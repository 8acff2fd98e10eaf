"""``repro.api`` — one client API for the simulator and the live runtime.

The public surface every experiment, load generator and CLI command goes
through::

    from repro.api import SimSession, LiveSession, RangeQuery

    session = SimSession(system)                       # simulator backend
    session = await LiveSession.connect(host, port)    # live gateway
    reply = await session.range(100.0, 200.0)          # same call, same Reply

See :mod:`repro.api.requests` for the request/reply model,
:mod:`repro.api.session` for the session contract, and the two bindings
in :mod:`repro.api.sim` and :mod:`repro.api.live`.

The backend bindings are imported lazily (PEP 562): the request model has
no runtime dependencies, so modules like the gateway can import it
without dragging in — or cyclically re-entering — the live stack.
"""

from repro.api.requests import (
    ApiError,
    Insert,
    InsertReply,
    MultiInsert,
    MultiRangeQuery,
    Ping,
    PongReply,
    QueryReply,
    RangeQuery,
    Reply,
    Request,
    RequestOptions,
    Stats,
    StatsReply,
    request_from_job,
    request_from_wire,
)
from repro.api.session import Session, SessionError

__all__ = [
    "ApiError",
    "Insert",
    "InsertReply",
    "LiveSession",
    "MultiInsert",
    "MultiRangeQuery",
    "Ping",
    "PongReply",
    "QueryReply",
    "RangeQuery",
    "Reply",
    "Request",
    "RequestOptions",
    "Session",
    "SessionError",
    "SimSession",
    "Stats",
    "StatsReply",
    "request_from_job",
    "request_from_wire",
]


def __getattr__(name: str):
    if name == "SimSession":
        from repro.api.sim import SimSession

        return SimSession
    if name == "LiveSession":
        from repro.api.live import LiveSession

        return LiveSession
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
