"""Unit tests for the multiprocess sweep orchestrator and the result store.

The load-bearing property is *merge determinism*: a sweep run on a process
pool must produce records — and persisted JSONL bytes — identical to the
serial reference path, job for job.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.figures import records_to_series
from repro.analysis.store import ResultStore, canonical_line, merge_stores
from repro.analysis.tables import format_records
from repro.experiments import analytics, figures_netsize, figures_rangesize
from repro.experiments.common import ExperimentConfig
from repro.experiments.orchestrator import (
    DEFAULT_SCHEMES,
    SCHEME_FACTORIES,
    SweepSpec,
    run_job,
    run_sweep,
)


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig.quick().with_overrides(
        peers=64, queries_per_point=6, objects=120
    )


def tiny_spec(**overrides) -> SweepSpec:
    kwargs = dict(
        schemes=("armada", "dcf-can"),
        range_sizes=(10.0, 120.0),
        network_sizes=(64,),
    )
    kwargs.update(overrides)
    return SweepSpec.from_config(tiny_config(), **kwargs)


class TestGridExpansion:
    def test_jobs_cover_the_cross_product_in_canonical_order(self):
        spec = tiny_spec(network_sizes=(64, 96), replicas=2)
        jobs = spec.jobs()
        assert len(jobs) == 2 * 2 * 2 * 2  # schemes x sizes x ranges x replicas
        assert [job.key() for job in jobs] == sorted(job.key() for job in jobs)

    def test_per_job_seeds_are_stable_and_distinct(self):
        first = {job.key(): job.seed for job in tiny_spec(replicas=2).jobs()}
        second = {job.key(): job.seed for job in tiny_spec(replicas=2).jobs()}
        assert first == second  # stable across expansions
        assert len(set(first.values())) == len(first)  # independent per point

    def test_seeds_depend_on_canonical_not_raw_coordinates(self):
        # int-vs-float grid values must not change the derived seeds: the
        # seed is a function of the job's canonical key(), so any record's
        # point can be re-derived from its recorded coordinates.
        as_ints = tiny_spec(range_sizes=(10, 120), network_sizes=(64,)).jobs()
        as_floats = tiny_spec(range_sizes=(10.0, 120.0), network_sizes=(64.0,)).jobs()
        assert [(job.key(), job.seed) for job in as_ints] == [
            (job.key(), job.seed) for job in as_floats
        ]

    def test_unknown_scheme_is_rejected(self):
        with pytest.raises(ValueError, match="unknown scheme"):
            tiny_spec(schemes=("armada", "no-such-scheme"))

    def test_replicas_must_be_positive(self):
        with pytest.raises(ValueError):
            tiny_spec(replicas=0)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"network_sizes": (64, 2)}, "3 peers"),
            ({"range_sizes": (10.0, -5.0)}, "range sizes"),
        ],
    )
    def test_grid_axes_obey_the_config_rules(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            tiny_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"peers": 2}, "3 peers"),
            ({"network_sizes": (400, 2)}, "3 peers"),
            ({"queries_per_point": 0}, "query"),
            ({"objects": -1}, "objects"),
            ({"range_sizes": (-5.0,)}, "range sizes"),
        ],
    )
    def test_config_refuses_a_nonsense_size(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig.quick().with_overrides(**overrides)
        ExperimentConfig.quick().with_overrides(objects=0, range_sizes=(0.0,))

    def test_every_registered_scheme_has_a_picklable_name(self):
        assert set(DEFAULT_SCHEMES) <= set(SCHEME_FACTORIES)


class TestRunJob:
    def test_record_is_flat_json_scalars(self):
        job = tiny_spec().jobs()[0]
        record = run_job(job)
        assert record["sweep_scheme"] == job.scheme
        assert record["network_size"] == job.network_size
        assert record["range_size"] == job.range_size
        assert record["queries"] == 6
        for value in record.values():
            assert isinstance(value, (str, int, float))

    def test_rerunning_a_job_reproduces_its_record(self):
        job = tiny_spec().jobs()[1]
        assert run_job(job) == run_job(job)


class TestMergeDeterminism:
    def test_parallel_records_equal_serial_records(self):
        spec = tiny_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.records == parallel.records
        assert serial.lines() == parallel.lines()

    def test_parallel_store_bytes_equal_serial_store_bytes(self, tmp_path):
        spec = tiny_spec()
        serial_store = ResultStore(os.fspath(tmp_path / "serial.jsonl"))
        parallel_store = ResultStore(os.fspath(tmp_path / "parallel.jsonl"))
        serial = run_sweep(spec, workers=1, store=serial_store)
        parallel = run_sweep(spec, workers=2, store=parallel_store)
        assert parallel.jobs == len(spec.jobs())
        assert parallel_store.load() == serial.records
        with open(serial_store.path, "rb") as handle:
            serial_bytes = handle.read()
        with open(parallel_store.path, "rb") as handle:
            parallel_bytes = handle.read()
        assert serial_bytes == parallel_bytes
        assert serial_bytes  # the sweep actually wrote something

    def test_progress_callback_sees_records_in_canonical_order(self):
        spec = tiny_spec(schemes=("dcf-can",))
        seen = []
        outcome = run_sweep(spec, workers=1, progress=seen.append)
        assert seen == outcome.records


class TestFiguresAreTheGrid:
    """Figures 5-8 and the section 4.3.2 bounds are sweep presets: the
    records behind ``run(config)`` are the preset's ``run_sweep`` lines."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "experiment",
        [figures_rangesize, figures_netsize, analytics],
        ids=lambda module: module.__name__.rsplit(".", 1)[-1],
    )
    def test_run_records_are_the_preset_sweep(self, experiment, workers):
        config = tiny_config().with_overrides(
            range_sizes=(10.0, 120.0), network_sizes=(48, 64)
        )
        lines = [canonical_line(record) for record in experiment.run(config).records]
        assert lines == run_sweep(experiment.preset(config), workers=workers).lines()
        assert lines


class TestStore:
    def test_append_load_roundtrip_and_filter(self, tmp_path):
        store = ResultStore(os.fspath(tmp_path / "rows.jsonl"))
        store.append({"scheme": "a", "x": 1.0})
        store.append_many([{"scheme": "b", "x": 1.0}, {"scheme": "a", "x": 2.0}])
        assert len(store) == 3
        assert store.filter(scheme="a") == [{"scheme": "a", "x": 1.0}, {"scheme": "a", "x": 2.0}]
        assert store.schemes() == ["a", "b"]
        store.clear()
        assert not store.exists()
        assert store.load() == []

    def test_canonical_line_is_key_order_independent(self):
        assert canonical_line({"b": 1, "a": 2.5}) == canonical_line({"a": 2.5, "b": 1})

    def test_merge_stores_concatenates_in_order(self, tmp_path):
        first = ResultStore(os.fspath(tmp_path / "first.jsonl"))
        second = ResultStore(os.fspath(tmp_path / "second.jsonl"))
        target = ResultStore(os.fspath(tmp_path / "merged.jsonl"))
        first.append({"n": 1})
        second.append({"n": 2})
        assert merge_stores([first, second], target) == 2
        assert [record["n"] for record in target] == [1, 2]


class TestAnalysisReadback:
    def test_persisted_sweep_renders_tables_and_series(self, tmp_path):
        spec = tiny_spec()
        store = ResultStore(os.fspath(tmp_path / "sweep.jsonl"))
        run_sweep(spec, workers=1, store=store)
        records = store.load()

        table = format_records(records, columns=["sweep_scheme", "range_size", "avg_delay"])
        assert "sweep_scheme" in table and "armada" in table

        x_values, series = records_to_series(records, x_key="range_size", y_key="avg_delay")
        assert x_values == [10.0, 120.0]
        assert set(series) == {"armada", "dcf-can"}
        assert all(len(values) == len(x_values) for values in series.values())

    def test_series_mark_unmeasured_grid_points_as_gaps(self):
        from repro.analysis.figures import ascii_chart, series_to_csv

        records = [
            {"sweep_scheme": "a", "x": 1.0, "y": 5.0},
            {"sweep_scheme": "a", "x": 2.0, "y": 6.0},
            {"sweep_scheme": "b", "x": 2.0, "y": 9.0},
        ]
        x_values, series = records_to_series(records, x_key="x", y_key="y")
        # b never measured x=1: the gap stays None, no fabricated value.
        assert series == {"a": [5.0, 6.0], "b": [None, 9.0]}
        csv_text = series_to_csv("x", x_values, series)
        assert "1,5.0000,\n" in csv_text + "\n"  # empty cell for the gap
        assert ascii_chart(x_values, series)  # gaps are drawable (skipped)
