"""Persistent JSONL result store for experiment sweeps.

The sweep orchestrator (:mod:`repro.experiments.orchestrator`) produces one
flat record (a ``dict`` of JSON-compatible scalars) per experiment point.
This module persists those records as **canonical JSON lines** so that

* results stream to disk as jobs finish — a crashed programmatic sweep
  keeps everything already appended to its store (the ``repro sweep
  --store`` CLI streams into ``<path>.tmp`` and renames on success, so
  after a CLI crash the completed records are in the ``.tmp`` file and the
  previous result file is untouched),
* two runs that compute the same records produce **byte-identical** files
  (keys are sorted and the float formatting is Python's shortest-repr,
  which is deterministic across processes and platforms), and
* the analysis layer (:mod:`repro.analysis.tables`,
  :mod:`repro.analysis.figures`) can read records back and regenerate
  tables, CSV series and charts without re-running any simulation.

Example
-------
>>> import tempfile, os
>>> path = os.path.join(tempfile.mkdtemp(), "sweep.jsonl")
>>> store = ResultStore(path)
>>> store.append({"scheme": "Armada (PIRA)", "x": 20.0, "avg_delay": 5.1})
>>> store.append({"scheme": "DCF-CAN", "x": 20.0, "avg_delay": 9.7})
>>> len(store.load())
2
>>> [r["scheme"] for r in store.filter(x=20.0)]
['Armada (PIRA)', 'DCF-CAN']
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterable, Iterator, List


def canonical_line(record: Dict[str, Any]) -> str:
    """The canonical single-line JSON serialisation of one record.

    Keys are sorted and separators are fixed, so equal records always
    serialise to equal bytes — the property the orchestrator's
    parallel-equals-serial guarantee is checked against.
    """
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """An append-only JSONL file of experiment-point records.

    The store is deliberately dumb: no indexes, no schema, one JSON object
    per line.  ``append`` flushes each record so concurrent readers (and
    post-crash inspection) always see complete lines.
    """

    def __init__(self, path: str) -> None:
        self.path = path

    # -- writing -----------------------------------------------------------

    def append(self, record: Dict[str, Any]) -> None:
        """Append one record (flushed immediately)."""
        self.append_many([record])

    def append_many(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append a batch of records in iteration order."""
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            for record in records:
                handle.write(canonical_line(record))
                handle.write("\n")
            handle.flush()

    def clear(self) -> None:
        """Delete the backing file (subsequent reads see an empty store)."""
        if os.path.exists(self.path):
            os.remove(self.path)

    # -- reading -----------------------------------------------------------

    def exists(self) -> bool:
        """True when the backing file exists on disk."""
        return os.path.exists(self.path)

    def load(self) -> List[Dict[str, Any]]:
        """All records, in file (= append) order."""
        return list(self)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        if not os.path.exists(self.path):
            return
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)

    def __len__(self) -> int:
        return sum(1 for _ in self)

    def filter(self, **equals: Any) -> List[Dict[str, Any]]:
        """Records whose fields equal every given keyword value.

        >>> # store.filter(scheme="Armada (PIRA)", network_size=2000)
        """
        return [
            record
            for record in self
            if all(record.get(key) == value for key, value in equals.items())
        ]

    def schemes(self) -> List[str]:
        """Distinct ``scheme`` values, in first-appearance order."""
        seen: List[str] = []
        for record in self:
            scheme = record.get("scheme")
            if scheme is not None and scheme not in seen:
                seen.append(scheme)
        return seen

    def __repr__(self) -> str:
        return f"ResultStore(path={self.path!r})"
