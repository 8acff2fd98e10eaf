"""Unit tests for the flight recorder (repro.obs.recorder)."""

from __future__ import annotations

import sys

import pytest

from repro.obs.recorder import (
    DUMP_MAGIC,
    DumpError,
    FlightRecorder,
    load_dump,
    write_dump,
)


def ticking_clock():
    """A deterministic stand-in for time.monotonic."""
    state = {"now": 0.0}

    def clock() -> float:
        state["now"] += 0.25
        return state["now"]

    return clock


class TestRing:
    def test_seq_is_globally_monotonic(self):
        recorder = FlightRecorder(capacity=8, clock=ticking_clock())
        seqs = [recorder.record("x", i=i) for i in range(5)]
        assert seqs == [1, 2, 3, 4, 5]
        assert [ev["seq"] for ev in recorder.events()] == seqs

    def test_bounded_ring_evicts_oldest_first(self):
        recorder = FlightRecorder(capacity=3, clock=ticking_clock())
        for i in range(10):
            recorder.record("x", i=i)
        assert len(recorder) == 3
        assert recorder.evicted == 7
        assert recorder.total_recorded == 10
        # The window is the newest events, and seq survives eviction.
        assert [ev["seq"] for ev in recorder.events()] == [8, 9, 10]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)

    def test_events_is_a_snapshot(self):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record("x")
        snapshot = recorder.events()
        recorder.record("y")
        assert len(snapshot) == 1


class TestDumpFormat:
    def test_round_trip_preserves_events_and_appends_trailer(self, tmp_path):
        recorder = FlightRecorder(capacity=4, clock=ticking_clock())
        for i in range(6):
            recorder.record("frame", index=i, nested={"a": [1, 2.5, "z"]})
        path = recorder.dump(str(tmp_path / "flight.dump"), reason="unit")
        events = load_dump(path)
        # 4 ring events + 1 synthetic trailer.
        assert len(events) == 5
        assert events[:-1] == recorder.events()
        trailer = events[-1]
        assert trailer["type"] == "dump"
        assert trailer["reason"] == "unit"
        assert trailer["events"] == 4
        assert trailer["evicted"] == 2

    def test_file_starts_with_magic(self, tmp_path):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record("x")
        path = recorder.dump(str(tmp_path / "flight.dump"))
        with open(path, "rb") as handle:
            assert handle.read(len(DUMP_MAGIC)) == DUMP_MAGIC

    def test_bad_magic_is_rejected(self, tmp_path):
        path = tmp_path / "not-a-dump"
        path.write_bytes(b"PNG\x00 definitely not a dump")
        with pytest.raises(DumpError, match="bad magic"):
            load_dump(str(path))

    def test_row_form_era_dump_is_rejected_in_one_line(self, tmp_path):
        """An ``ARFR1`` dump holds row-form matches: replaying it would
        report every query as diverged, so loading it says why instead."""
        path = tmp_path / "old.dump"
        path.write_bytes(b"ARFR1\n")
        assert DUMP_MAGIC == b"ARFR3\n"
        with pytest.raises(DumpError, match="predates the column wire form"):
            load_dump(str(path))

    def test_text_float_era_dump_is_rejected_in_one_line(self, tmp_path):
        """An ``ARFR2`` dump's replies spell float columns as JSON text: its
        recorded bytes can never equal a replayed ``to_wire()``."""
        path = tmp_path / "parent.dump"
        path.write_bytes(b"ARFR2\n" + b"\x00\x00\x00\x01\x80")
        with pytest.raises(DumpError, match=r"is an ARFR2 dump: it predates typed columns$"):
            load_dump(str(path))

    def test_missing_file_is_a_dump_error(self, tmp_path):
        with pytest.raises(DumpError, match="cannot read"):
            load_dump(str(tmp_path / "nope.dump"))

    def test_truncated_dump_is_rejected(self, tmp_path):
        recorder = FlightRecorder(clock=ticking_clock())
        for i in range(4):
            recorder.record("x", i=i)
        path = recorder.dump(str(tmp_path / "flight.dump"))
        blob = open(path, "rb").read()
        clipped = tmp_path / "clipped.dump"
        clipped.write_bytes(blob[:-3])
        with pytest.raises(DumpError, match="truncated"):
            load_dump(str(clipped))

    def test_edit_round_trip_via_write_dump(self, tmp_path):
        """The tamper workflow the divergence tests rely on: load, edit
        one field, write back, load again — everything else unchanged."""
        recorder = FlightRecorder(clock=ticking_clock())
        for i in range(3):
            recorder.record("deliver", hop=i)
        original = str(tmp_path / "a.dump")
        recorder.dump(original)
        events = load_dump(original)
        events[1]["hop"] = 99
        edited = str(tmp_path / "b.dump")
        write_dump(events, edited)
        reloaded = load_dump(edited)
        assert reloaded[1]["hop"] == 99
        assert reloaded[0] == events[0]
        assert reloaded[-1] == events[-1]

    def test_dump_creates_the_target_directory(self, tmp_path):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record("x")
        path = recorder.dump(str(tmp_path / "deep" / "er" / "flight.dump"))
        assert load_dump(path)


class TestTriggers:
    def test_default_path_needs_an_installed_directory(self):
        recorder = FlightRecorder(clock=ticking_clock())
        with pytest.raises(ValueError, match="no dump path"):
            recorder.dump()

    def test_install_names_sequential_dumps(self, tmp_path):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.install(str(tmp_path), handle_signal=False, handle_excepthook=False)
        recorder.record("x")
        first = recorder.dump()
        second = recorder.dump()
        assert first.endswith("flight-1.dump")
        assert second.endswith("flight-2.dump")
        assert recorder.dumps_written == 2

    def test_excepthook_chains_and_dumps(self, tmp_path):
        recorder = FlightRecorder(clock=ticking_clock())
        recorder.record("x")
        seen = []
        previous_hook = sys.excepthook
        sys.excepthook = lambda *exc_info: seen.append(exc_info)
        try:
            recorder.install(str(tmp_path), handle_signal=False)
            try:
                raise RuntimeError("boom")
            except RuntimeError:
                sys.excepthook(*sys.exc_info())
            recorder.uninstall()
            assert sys.excepthook not in (recorder._on_exception,)
        finally:
            sys.excepthook = previous_hook
        # The previous hook still ran, and the dump recorded the crash.
        assert len(seen) == 1
        events = load_dump(str(tmp_path / "flight-1.dump"))
        crash = [ev for ev in events if ev["type"] == "crash"]
        assert crash and crash[0]["error"] == "RuntimeError"
        assert crash[0]["message"] == "boom"
        assert events[-1]["reason"] == "exception"
