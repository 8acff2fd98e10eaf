"""Integration tests: the robustness-under-failure sweep and its CLI.

The acceptance property of the faults work: ``repro faults`` produces a
deterministic (seed-fixed) success-ratio/completeness curve persisted via
the ResultStore, byte-identical across runs and across worker counts.
"""

from __future__ import annotations

import os

import pytest

from repro.analysis.store import ResultStore, canonical_line
from repro.cli import build_parser, main
from repro.experiments.common import ExperimentConfig
from repro.experiments.faults import (
    DEFAULT_FRACTIONS,
    FaultSweepSpec,
    run_fault_job,
    run_sweep,
)


def tiny_config() -> ExperimentConfig:
    return ExperimentConfig.quick().with_overrides(
        peers=120, queries_per_point=10, objects=300
    )


def tiny_spec(**kwargs) -> FaultSweepSpec:
    kwargs.setdefault("schemes", ("pira", "pira-basic"))
    kwargs.setdefault("fractions", (0.0, 0.2))
    return FaultSweepSpec.from_config(tiny_config(), **kwargs)


class TestSpecValidation:
    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unknown fault scheme"):
            tiny_spec(schemes=("pira", "armada"))

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="failed fractions"):
            tiny_spec(fractions=(0.95,))
        with pytest.raises(ValueError, match="at least one failed fraction"):
            tiny_spec(fractions=())

    def test_non_positive_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline must be positive"):
            tiny_spec(deadline=0.0)

    def test_default_fractions_are_papers_axis(self):
        spec = FaultSweepSpec.from_config(tiny_config())
        assert spec.fractions == DEFAULT_FRACTIONS

    def test_jobs_canonical_order_and_distinct_seeds(self):
        spec = tiny_spec(replicas=2)
        jobs = spec.jobs()
        assert [job.key() for job in jobs] == sorted(job.key() for job in jobs)
        assert len({job.seed for job in jobs}) == len(jobs)


class TestFaultSweep:
    def test_curve_shape_and_record_fields(self):
        outcome = run_sweep(tiny_spec())
        assert outcome.jobs == 4
        by_key = {(r["scheme"], r["failed_fraction"]): r for r in outcome.records}
        # Fault-free points retrieve everything.
        for scheme in ("pira", "pira-basic"):
            clean = by_key[(scheme, 0.0)]
            assert clean["success_ratio"] == 1.0
            assert clean["mean_completeness"] == 1.0
            assert clean["failed_peers"] == 0
            assert clean["stalled"] == 0
        # Failures degrade the basic protocol at least as much as the
        # resilient one, and the crash actually happened.
        faulty = by_key[("pira", 0.2)]
        basic = by_key[("pira-basic", 0.2)]
        assert faulty["failed_peers"] == int(0.2 * 120)
        assert faulty["success_ratio"] >= basic["success_ratio"]
        assert faulty["retries"] + faulty["reroutes"] > 0
        assert basic["retries"] == 0
        # Counts are ints, ratios floats (clean JSON).
        for key in ("queries", "succeeded", "failed_peers", "messages", "retries"):
            assert isinstance(faulty[key], int), key
        xs, series = outcome.curve("success_ratio")
        assert xs == [0.0, 0.2]
        assert set(series) == {"pira", "pira-basic"}
        assert "Robustness under failure" in outcome.format()

    def test_mira_variant_runs(self):
        outcome = run_sweep(tiny_spec(schemes=("mira",), fractions=(0.1,)))
        record = outcome.records[0]
        assert record["scheme"] == "mira"
        assert record["queries"] == 10
        assert record["stalled"] == 0

    def test_deterministic_across_runs(self):
        spec = tiny_spec()
        first = run_sweep(spec).records
        second = run_sweep(spec).records
        assert [canonical_line(r) for r in first] == [canonical_line(r) for r in second]

    def test_parallel_equals_serial(self, tmp_path):
        spec = tiny_spec(fractions=(0.0, 0.1))
        serial = run_sweep(spec, workers=1)
        store = ResultStore(os.fspath(tmp_path / "faults.jsonl"))
        parallel = run_sweep(spec, workers=2, store=store)
        assert parallel.records == serial.records
        assert store.load() == serial.records

    def test_single_job_rerun_matches_sweep_row(self):
        spec = tiny_spec(fractions=(0.2,), schemes=("pira",))
        outcome = run_sweep(spec)
        job = spec.jobs()[0]
        assert run_fault_job(job) == outcome.records[0]


class TestFaultsCli:
    def test_parser_accepts_faults_flags(self):
        parser = build_parser()
        args = parser.parse_args(
            ["faults", "--scheme", "pira", "--failed-fraction", "0,0.05,0.1,0.2",
             "--timeout", "3", "--retries", "1", "--no-reroute", "--deadline", "80"]
        )
        assert args.command == "faults"
        assert args.scheme == "pira"
        assert args.failed_fraction == "0,0.05,0.1,0.2"
        assert args.no_reroute is True

    def test_bad_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["faults", "--profile", "quick", "--scheme", "nonesuch"])

    def test_bad_deadline_exits_cleanly(self):
        with pytest.raises(SystemExit, match="deadline must be positive"):
            main(["faults", "--profile", "quick", "--deadline", "0"])

    def test_cross_command_scheme_flags_rejected(self, capsys):
        """--scheme belongs to faults, --schemes to sweep; mixing them up
        is an argparse error instead of being silently ignored."""
        with pytest.raises(SystemExit) as excinfo:
            main(["faults", "--profile", "quick", "--schemes", "pira"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --schemes pira" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--profile", "quick", "--scheme", "armada"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --scheme armada" in capsys.readouterr().err

    def test_cli_store_is_deterministic(self, tmp_path, capsys):
        """The acceptance criterion: the CLI curve is seed-fixed and the
        persisted store is byte-identical across runs."""
        argv = [
            "faults",
            "--profile", "quick",
            "--peers", "120",
            "--queries", "8",
            "--objects", "300",
            "--scheme", "pira",
            "--failed-fraction", "0,0.1,0.2",
        ]
        first_path = os.fspath(tmp_path / "first.jsonl")
        second_path = os.fspath(tmp_path / "second.jsonl")
        assert main(argv + ["--store", first_path]) == 0
        out = capsys.readouterr().out
        assert "Success ratio vs failed fraction" in out
        assert f"streamed 3 records into {first_path}" in out
        assert main(argv + ["--store", second_path]) == 0

        with open(first_path, "rb") as handle:
            first_bytes = handle.read()
        with open(second_path, "rb") as handle:
            second_bytes = handle.read()
        assert first_bytes == second_bytes
        records = ResultStore(first_path).load()
        assert [r["failed_fraction"] for r in records] == [0.0, 0.1, 0.2]
        assert records[0]["success_ratio"] == 1.0
