"""Unit tests for ``tools/wakeups.py``, the per-request work counter."""

from __future__ import annotations

import asyncio
import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(__file__), "..", "..", "tools", "wakeups.py")


def load_tool():
    spec = importlib.util.spec_from_file_location("wakeups_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_repeat_exactly_and_restore_what_they_wrap():
    """An insert's and a get's counts repeat exactly (they are work, not
    timings: one frame in flight at a time), the write counter sees every
    socket's frames, and the wrapped write is the class's own again
    afterwards.  The bound on loop iterations is ``TestLoopWakeups``'s."""
    wakeups = load_tool()
    write = wakeups.selector_events._SelectorSocketTransport.write
    first, second = (asyncio.run(wakeups.measure(count=20, seed=7)) for _ in range(2))
    assert list(first) == ["insert", "get", "range, width 20"]
    for name in ("insert", "get"):
        assert first[name] == second[name]
        assert first[name]["writes"] == 4.0  # request, store/fetch, reply, reply
        assert first[name]["iterations"] > 0
    assert first["range, width 20"]["writes"] > 0
    assert wakeups.selector_events._SelectorSocketTransport.write is write


def test_a_count_below_one_is_a_usage_error(capsys):
    wakeups = load_tool()
    with pytest.raises(SystemExit) as exited:
        wakeups.main(["--count", "0"])
    assert exited.value.code == 2
    assert "--count must be at least 1" in capsys.readouterr().err
