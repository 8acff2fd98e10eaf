"""The benchmark's trace hooks still bind.

``bench/trace.py`` wraps 28 functions of this program *by name*, and only
when the benchmark runs with ``--trace 1`` — which tier-1 never does.  A
method target is read as ``cls.__dict__[attr]``, so hoisting one into a base
class (or renaming it) raises ``KeyError`` there and nowhere else.  This
resolves every target the way ``Tracer._patch_method`` /
``Tracer._patch_function`` do, without installing anything.

The same run reads ``naming.cache_hit_share`` through
``bench.layers.memo_counts``, which looks four memo names up on the
program; that lookup is pinned here too.
"""

from __future__ import annotations

import importlib
from types import SimpleNamespace

import pytest

from bench.layers import memo_counts
from bench.trace import TARGETS
from repro.core.armada import ArmadaSystem


@pytest.mark.parametrize(
    "module_name, dotted", [target[1:] for target in TARGETS], ids=[t[2] for t in TARGETS]
)
def test_trace_target_resolves(module_name: str, dotted: str) -> None:
    module = importlib.import_module(module_name)
    owner_name, _, attr = dotted.rpartition(".")
    if owner_name:
        raw = getattr(module, owner_name).__dict__[attr]  # defined on the class itself
        assert callable(raw.__func__ if isinstance(raw, classmethod) else raw)
    else:
        assert callable(getattr(module, attr))


def test_memo_counts_reads_no_memo_on_the_naming_path() -> None:
    system = ArmadaSystem(num_peers=32, seed=4, attribute_interval=(0.0, 1000.0))
    system.insert_many([float(value) for value in range(0, 1000, 50)])
    for low, high in ((10.0, 400.0), (10.0, 400.0), (650.5, 651.0)):
        system.range_query(low, high)
    assert memo_counts(SimpleNamespace(cluster=None, armada=system)) == (0, 0)
