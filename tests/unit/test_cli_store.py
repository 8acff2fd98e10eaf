"""``--store`` writes a clean snapshot: records stream into ``<path>.tmp``
and replace the file only when the run succeeds."""

from __future__ import annotations

import json

import pytest

from repro import cli


def _failing_sweep(spec, workers=1, store=None):
    store.append({"partial": True})
    raise RuntimeError("worker died mid-sweep")


def test_a_failed_grid_leaves_the_previous_store_untouched(tmp_path, monkeypatch):
    store = tmp_path / "faults.jsonl"
    store.write_text('{"previous": true}\n')
    monkeypatch.setattr(cli.faults_experiment, "run_sweep", _failing_sweep)
    with pytest.raises(RuntimeError, match="mid-sweep"):
        cli.main(["faults", "--profile", "quick", "--store", str(store)])
    assert store.read_text() == '{"previous": true}\n'
    # The partial stream stays beside it for inspection.
    assert json.loads((tmp_path / "faults.jsonl.tmp").read_text()) == {"partial": True}


def test_a_successful_write_replaces_the_store(tmp_path):
    store = tmp_path / "soak.jsonl"
    store.write_text('{"previous": true}\n')
    summary = cli._replace_store(str(store), [{"run": 1}, {"run": 2}])
    assert summary == f"streamed 2 records into {store}"
    assert [json.loads(line) for line in store.read_text().splitlines()] == [
        {"run": 1},
        {"run": 2},
    ]
    assert not (tmp_path / "soak.jsonl.tmp").exists()
