"""Unit tests for ``tools/wakeups.py``, the per-request work counter."""

from __future__ import annotations

import asyncio

import pytest


def test_counts_repeat_exactly_and_restore_what_they_wrap(wakeups):
    """An insert's and a get's counts repeat exactly (they are work, not
    timings: one frame in flight at a time), the write counter sees every
    socket's frames, and the wrapped write is the class's own again
    afterwards.  The bounds on loop iterations and loop timers are
    ``TestLoopWakeups``'s."""
    write = wakeups.selector_events._SelectorSocketTransport.write
    first, second = (asyncio.run(wakeups.measure(count=20, seed=7)) for _ in range(2))
    assert list(first) == ["insert", "get", "range, width 20"]
    for name in ("insert", "get"):
        assert first[name] == second[name]
        assert list(first[name]) == ["iterations", "writes", "timers", "tasks"]
        assert first[name]["writes"] == 4.0  # request, store/fetch, reply, reply
        assert first[name]["iterations"] > 0
    assert first["range, width 20"]["writes"] > 0
    assert wakeups.selector_events._SelectorSocketTransport.write is write


def test_timers_and_tasks_are_counted_and_the_loop_is_restored(wakeups):
    """``call_later`` goes through the counted ``call_at``, ``asyncio.create_task``
    through the counted ``create_task``; afterwards the loop's own methods
    are back (nothing of the wrapping is left on the instance)."""

    async def scenario():
        loop = asyncio.get_running_loop()
        with wakeups.counting(loop) as counts:
            loop.call_later(10.0, print).cancel()
            loop.call_at(loop.time() + 10.0, print).cancel()
            await asyncio.create_task(asyncio.sleep(0))
        assert (counts["timers"], counts["tasks"]) == (2, 1)
        assert counts["iterations"] > 0
        for name in ("_run_once", "call_at", "create_task"):
            assert name not in vars(loop)

    asyncio.run(scenario())


def test_a_count_below_one_is_a_usage_error(capsys, wakeups):
    with pytest.raises(SystemExit) as exited:
        wakeups.main(["--count", "0"])
    assert exited.value.code == 2
    assert "--count must be at least 1" in capsys.readouterr().err
