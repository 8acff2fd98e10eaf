"""The benchmark's trace hooks still bind.

``bench/trace.py`` wraps 28 functions of this program *by name*, and only
when the benchmark runs with ``--trace 1`` — which tier-1 never does.  A
method target is read as ``cls.__dict__[attr]``, so hoisting one into a base
class (or renaming it) raises ``KeyError`` there and nowhere else.  This
resolves every target the way ``Tracer._patch_method`` /
``Tracer._patch_function`` do, without installing anything.
"""

from __future__ import annotations

import importlib

import pytest

from bench.trace import TARGETS


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

