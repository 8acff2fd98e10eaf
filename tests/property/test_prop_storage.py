"""Property tests: WAL replay ≡ memory state at the last sync.

Satellite of the durable-storage PR.  The storage contract says a durable
backend may lose writes made after the last ``sync()`` barrier at a power
failure, but must reproduce the synced prefix of the history *exactly* —
the content-addressed digest over the replayed state equals the digest of
a memory store that applied only the synced operations.  Hypothesis
drives interleaved inserts, overwrites (second copies under the same
ObjectID), replica appends, zone hand-offs (``take_prefix``) and sync
barriers, then crashes the store at an arbitrary point in the history —
including **mid-record**: the WAL torn-tail test cuts the log file at an
arbitrary byte offset, the crash a real ``kill -9`` leaves behind.

The second half holds both backends' key-sorted runs to the filter they
replace: after each step of a random history, ``scan(low, high)`` is the
brute-force filter over ``objects()``, in key order, equal keys in the
order they were added — and a crash rebuilds the run of the last sync.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.base import StoredObject
from repro.storage.memory import MemoryStore
from repro.storage.wal import WALStore

OBJECT_IDS = ("010", "012", "0101", "0102", "0120", "0201", "0210", "1010", "2101")
PREFIXES = ("0", "01", "02", "012", "1", "21")

keys = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.tuples(st.floats(-10, 10), st.floats(-10, 10)),
)
values = st.one_of(st.none(), st.floats(-100, 100), st.text(max_size=8))

operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(OBJECT_IDS), keys, values),
        st.tuples(st.just("rput"), st.sampled_from(OBJECT_IDS), keys, values),
        st.tuples(st.just("take"), st.sampled_from(PREFIXES)),
        st.tuples(st.just("sync")),
    ),
    max_size=30,
)


def apply(store, op):
    if op[0] == "put":
        store.put(op[1], key=op[2], value=op[3])
    elif op[0] == "rput":
        store.put_replica(op[1], key=op[2], value=op[3])
    elif op[0] == "take":
        store.take_prefix(op[1])
    elif op[0] == "sync":
        store.sync()


def model_at_last_sync(ops):
    """A memory store holding exactly the synced prefix of the history."""
    last_sync = 0
    for index, op in enumerate(ops):
        if op[0] == "sync":
            last_sync = index + 1
    model = MemoryStore()
    for op in ops[:last_sync]:
        apply(model, op)
    return model


def digests(store):
    return (store.digest(), store.digest(replicas=True))


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_replay_equals_memory_state_at_last_sync(ops):
    with tempfile.TemporaryDirectory() as tmp:
        store = WALStore(os.path.join(tmp, "peer.wal"), sync_mode="manual")
        for op in ops:
            apply(store, op)
        store.power_fail()  # crash at an arbitrary point in the history
        store.replay()
        assert digests(store) == digests(model_at_last_sync(ops))
        store.close()


@settings(max_examples=60, deadline=None)
@given(ops=operations)
def test_synced_history_survives_close_and_reopen(ops):
    """Replay of a cleanly closed log ≡ the whole history, bit for bit."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "peer.wal")
        reference = MemoryStore()
        store = WALStore(path)
        for op in ops:
            apply(reference, op)
            apply(store, op)
        store.close()
        reopened = WALStore(path)
        reopened.replay()
        assert digests(reopened) == digests(reference)
        reopened.close()


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(st.just("put"), st.sampled_from(OBJECT_IDS), keys, values),
        min_size=1,
        max_size=12,
    ),
    cut_back=st.integers(min_value=1, max_value=200),
)
def test_wal_torn_tail_at_any_byte_boundary(ops, cut_back):
    """Cut the log at an arbitrary byte and replay: the state equals the
    longest prefix of synced records that fits below the cut — a torn
    final record is dropped, never an error, and never a partial apply."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "peer.wal")
        store = WALStore(path)  # sync after every record
        sizes = [os.path.getsize(path)]
        for op in ops:
            apply(store, op)
            sizes.append(os.path.getsize(path))
        store.close()

        cut = max(sizes[0], sizes[-1] - cut_back)
        with open(path, "r+b") as handle:
            handle.truncate(cut)
        survivors = max(i for i, size in enumerate(sizes) if size <= cut)

        store = WALStore(path)
        assert store.replay() == survivors
        assert digests(store) == digests(model_at_last_sync(
            list(ops[:survivors]) + [("sync",)]
        ))
        store.close()


# --------------------------------------------------------------------------- #
# The key-sorted run: ``scan`` is the brute-force filter, as a slice           #
# --------------------------------------------------------------------------- #

#: every key shape a store can hold; 1, 1.0 and True are equal keys, so
#: runs of equal keys are common
run_keys = st.one_of(
    st.integers(-3, 3),
    st.floats(-5, 5),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0, 1.0, 1, True, False]),
    st.text(max_size=2),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
)
bounds = st.one_of(
    st.sampled_from([-math.inf, -1.0, 0, 1, 1.0, 2.5, math.inf, math.nan]),
    st.floats(-6, 6),
)
#: checked after every step besides the drawn ones: everything, a point,
#: NaN bounds and an inverted range (nothing)
FIXED_RANGES = [(-math.inf, math.inf), (1, 1), (math.nan, 5), (-5, math.nan), (5, -5)]

run_operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from(OBJECT_IDS), run_keys),
        st.tuples(
            st.just("absorb"),
            st.lists(st.tuples(st.sampled_from(OBJECT_IDS), run_keys), max_size=4),
        ),
        st.tuples(st.just("take"), st.sampled_from(PREFIXES)),
        st.tuples(st.just("sync")),
        st.tuples(st.just("crash")),
    ),
    max_size=25,
)


def ident(stored):
    """One object, told apart from an equal key of another type."""
    return (stored.object_id, type(stored.key), stored.key, stored.value)


def brute_force(store, low, high):
    """The filter a PIRA destination ran before the run existed."""
    return [
        stored
        for stored in store.objects()
        if isinstance(stored.key, (int, float)) and low <= stored.key <= high
    ]


def assert_scan_is_the_filter(store, low, high):
    got = store.scan(low, high)
    assert Counter(map(ident, got)) == Counter(map(ident, brute_force(store, low, high)))
    for before, after in zip(got, got[1:]):
        assert before.key <= after.key
        if before.key == after.key:  # values count up in the order objects were added
            assert before.value < after.value


def make_store(backend, path, sync_mode="always"):
    return MemoryStore() if backend == "memory" else WALStore(path, sync_mode=sync_mode)


@settings(max_examples=150, deadline=None)
@given(
    ops=run_operations,
    ranges=st.lists(st.tuples(bounds, bounds), min_size=1, max_size=3),
    backend=st.sampled_from(["memory", "wal"]),
)
def test_scan_is_the_brute_force_filter_in_key_order(ops, ranges, backend):
    ranges = ranges + FIXED_RANGES
    with tempfile.TemporaryDirectory() as tmp:
        store = make_store(backend, os.path.join(tmp, f"peer.{backend}"), sync_mode="manual")
        added = iter(range(10**6))  # each object's value: the order it was added in
        run_at_sync = []
        for op in ops + [("sync",), ("crash",)]:  # every history ends in a crash
            if op[0] == "put":
                store.put(op[1], key=op[2], value=next(added))
            elif op[0] == "absorb":
                store.absorb([StoredObject(oid, key, next(added)) for oid, key in op[1]])
            elif op[0] == "take":
                store.take_prefix(op[1])
            elif op[0] == "sync":
                store.sync()
                run_at_sync = list(map(ident, store.run))
            else:
                store.power_fail()
                store.replay()
                # a durable store rebuilds the run it had at the last sync;
                # the memory store comes back empty
                assert list(map(ident, store.run)) == (run_at_sync if backend != "memory" else [])
            for low, high in ranges:
                assert_scan_is_the_filter(store, low, high)
        store.close()


@pytest.mark.parametrize("backend", ["memory", "wal"])
def test_scan_keeps_only_numeric_keys_in_range(backend, tmp_path):
    """NaN, a string and a tuple are in the zone but never in a range."""
    store = make_store(backend, str(tmp_path / f"peer.{backend}"))
    for index, key in enumerate([5.0, math.nan, 1.0, "x", (1.0, 2.0)]):
        store.put(f"01{index}", key=key, value=index)
    assert [stored.key for stored in store.scan(0, 10)] == [1.0, 5.0]
    store.close()
