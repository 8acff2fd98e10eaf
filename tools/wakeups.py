#!/usr/bin/env python3
"""Loop iterations, socket writes, loop timers and tasks per live request:
counted, not timed.

Boots a 32-peer cluster on 8 nodes behind a gateway in this process, with
one client connection, and runs ``--count`` requests of each kind one at a
time — an insert, a get of an inserted value, a width-20 range query —
after a warm-up that dials every node link.  Over each kind's requests it
counts

* loop iterations: calls of the running loop's ``_run_once``;
* socket writes: calls of ``asyncio.selector_events._SelectorSocketTransport.write``
  (every frame the client, the gateway and the node links send);
* loop timers: calls of the loop's ``call_at`` (``call_later`` and
  ``asyncio.timeout`` go through it), each a handle pushed on the loop's
  timer heap;
* tasks: calls of the loop's ``create_task`` (``asyncio.create_task``,
  ``ensure_future`` and ``gather`` go through it);

and prints each per request.  None is a timing, so none needs a noise
estimate: a change that moves them moved work.  It uses only the session,
gateway and cluster API, so the same script measures another checkout of
the tree through ``PYTHONPATH``::

    PYTHONPATH=src python tools/wakeups.py [--count 200] [--seed 7]
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import random
import sys
from asyncio import selector_events
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.api.live import LiveSession
from repro.runtime.cluster import LiveCluster
from repro.runtime.gateway import Gateway

#: the range query's width, in attribute units (the domain is 0..1000)
WIDTH = 20.0


@contextlib.contextmanager
def counting(loop: asyncio.AbstractEventLoop) -> Iterator[Dict[str, int]]:
    """Count loop iterations, socket writes, loop timers and tasks while
    the block runs."""
    counts = {"iterations": 0, "writes": 0, "timers": 0, "tasks": 0}
    transport_class = selector_events._SelectorSocketTransport
    write = transport_class.write

    def counted(key: str, call: Callable[..., Any]) -> Callable[..., Any]:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[key] += 1
            return call(*args, **kwargs)

        return wrapper

    wrapped = {"_run_once": "iterations", "call_at": "timers", "create_task": "tasks"}
    for name, key in wrapped.items():
        setattr(loop, name, counted(key, getattr(loop, name)))
    transport_class.write = counted("writes", write)
    try:
        yield counts
    finally:
        for name in wrapped:
            delattr(loop, name)
        transport_class.write = write


async def measure(count: int, seed: int) -> Dict[str, Dict[str, float]]:
    """Per request kind: each of :func:`counting`'s counts per request."""
    rng = random.Random(seed)
    values = [rng.uniform(0.0, 1000.0) for _ in range(count)]
    lows = [rng.uniform(0.0, 1000.0 - WIDTH) for _ in range(count)]
    cluster = LiveCluster(num_peers=32, num_nodes=8, seed=seed)
    await cluster.start()
    gateway = await Gateway(cluster).start()
    session = await LiveSession.connect(*gateway.address, pool=1)
    requests = {
        "insert": lambda index: session.insert(values[index]),
        "get": lambda index: session.get(values[index]),
        f"range, width {WIDTH:g}": lambda index: session.range(lows[index], lows[index] + WIDTH),
    }
    per_request: Dict[str, Dict[str, float]] = {}
    try:
        for index in range(min(count, 40)):  # every node link dialled
            await session.range(lows[index], lows[index] + WIDTH)
            await session.insert(1000.0 * index / 40)
        loop = asyncio.get_running_loop()
        for name, request in requests.items():
            with counting(loop) as counts:
                for index in range(count):
                    await request(index)
            per_request[name] = {key: value / count for key, value in counts.items()}
    finally:
        await session.close()
        await gateway.shutdown()
        await cluster.stop()
    return per_request


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=200, help="requests of each kind (default 200)")
    parser.add_argument("--seed", type=int, default=7, help="cluster and value seed (default 7)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be at least 1")
    per_request = asyncio.run(measure(args.count, args.seed))
    print(
        f"{'request':<18}{'loop iterations':>17}{'socket writes':>15}{'loop timers':>13}{'tasks':>7}"
        "   (per request, one in flight)"
    )
    for name, counts in per_request.items():
        print(
            f"{name:<18}{counts['iterations']:>17.2f}{counts['writes']:>15.2f}"
            f"{counts['timers']:>13.2f}{counts['tasks']:>7.2f}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
