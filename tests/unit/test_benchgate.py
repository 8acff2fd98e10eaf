"""Unit tests for the perf-regression gate (:mod:`repro.benchgate`).

The acceptance bar from the binary-hot-path PR: ``repro bench --check``
must exit non-zero when a gated metric (here: an artificially injected
30% ``events_per_sec`` drop) regresses beyond the threshold, and the
cpu_count-aware skip must keep wall-clock rates from failing CI on a
differently-sized machine.
"""

from __future__ import annotations

import io
import json
import os

from repro.benchgate import (
    DEFAULT_THRESHOLD,
    append_history,
    compare,
    format_table,
    read_bench_dir,
    run_gate,
)

CPUS = os.cpu_count() or 1


def write_bench(directory, name, metrics, cpu_count=CPUS):
    payload = {
        "name": name,
        "python": "3.11.0",
        "platform": "test",
        "cpu_count": cpu_count,
        "git_sha": "deadbeef",
        "timestamp": "2026-01-01T00:00:00+0000",
        "metrics": metrics,
    }
    path = os.path.join(directory, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return path


class TestCompare:
    def test_thirty_percent_rate_drop_regresses(self):
        baselines = {"load": {"cpu_count": CPUS, "metrics": {"events_per_sec": 1000.0}}}
        currents = {"load": {"cpu_count": CPUS, "metrics": {"events_per_sec": 700.0}}}
        deltas = compare(baselines, currents)
        delta = next(d for d in deltas if d.metric == "events_per_sec")
        assert delta.status == "regressed"
        assert abs(delta.change - (-0.30)) < 1e-9

    def test_drop_within_threshold_is_ok(self):
        baselines = {"load": {"cpu_count": CPUS, "metrics": {"events_per_sec": 1000.0}}}
        currents = {"load": {"metrics": {"events_per_sec": 800.0}}}
        deltas = compare(baselines, currents)
        delta = next(d for d in deltas if d.metric == "events_per_sec")
        assert delta.status == "ok"

    def test_rate_skipped_on_cpu_count_mismatch(self):
        baselines = {"load": {"cpu_count": CPUS + 1, "metrics": {"events_per_sec": 1000.0}}}
        currents = {"load": {"metrics": {"events_per_sec": 10.0}}}  # huge drop
        deltas = compare(baselines, currents)
        delta = next(d for d in deltas if d.metric == "events_per_sec")
        assert delta.status == "skipped-cpu"

    def test_ratio_gated_regardless_of_cpu_count(self):
        baselines = {
            "livefaults": {"cpu_count": CPUS + 7, "metrics": {"success_ratio": 1.0}}
        }
        currents = {"livefaults": {"metrics": {"success_ratio": 0.5}}}
        deltas = compare(baselines, currents)
        delta = next(d for d in deltas if d.metric == "success_ratio")
        assert delta.status == "regressed"

    def test_improvement_is_ok_and_missing_is_reported(self):
        baselines = {"load": {"cpu_count": CPUS, "metrics": {"events_per_sec": 100.0}}}
        currents = {
            "load": {"metrics": {"events_per_sec": 500.0, "queries_per_sec": 9.0}}
        }
        deltas = {d.metric: d for d in compare(baselines, currents)}
        assert deltas["events_per_sec"].status == "ok"
        assert deltas["queries_per_sec"].status == "missing"  # no baseline

    def test_table_renders_every_status(self):
        baselines = {"load": {"cpu_count": CPUS, "metrics": {"events_per_sec": 1000.0}}}
        currents = {"load": {"metrics": {"events_per_sec": 700.0}}}
        table = format_table(compare(baselines, currents))
        assert "REGRESSED" in table
        assert "events_per_sec" in table


class TestRunGate:
    """The full flow, as ``repro bench --check --skip-run`` drives it."""

    def run(self, tmp_path, baseline_metrics, current_metrics, **kwargs):
        baseline_dir = tmp_path / "baseline"
        bench_dir = tmp_path / "current"
        baseline_dir.mkdir()
        bench_dir.mkdir()
        write_bench(str(baseline_dir), "load", baseline_metrics)
        write_bench(str(bench_dir), "load", current_metrics)
        out = io.StringIO()
        code = run_gate(
            repo_root=str(tmp_path),  # not a git repo: baseline_dir rules
            bench_dir=str(bench_dir),
            baseline_dir=str(baseline_dir),
            skip_run=True,
            out=out,
            **kwargs,
        )
        return code, out.getvalue()

    def test_injected_30pct_regression_fails_the_check(self, tmp_path):
        code, output = self.run(
            tmp_path,
            {"events_per_sec": 1000.0, "queries_per_sec": 50.0},
            {"events_per_sec": 700.0, "queries_per_sec": 50.0},
            check=True,
        )
        assert code == 1
        assert "REGRESSED" in output
        assert "1 gated metric(s) regressed" in output

    def test_same_regression_without_check_still_exits_zero(self, tmp_path):
        code, output = self.run(
            tmp_path,
            {"events_per_sec": 1000.0},
            {"events_per_sec": 700.0},
            check=False,
        )
        assert code == 0
        assert "REGRESSED" in output  # reported, just not enforced

    def test_healthy_numbers_pass_the_check(self, tmp_path):
        code, output = self.run(
            tmp_path,
            {"events_per_sec": 1000.0, "queries_per_sec": 50.0},
            {"events_per_sec": 990.0, "queries_per_sec": 51.0},
            check=True,
        )
        assert code == 0
        assert f"no gated metric regressed by more than {DEFAULT_THRESHOLD:.0%}" in output

    def test_no_artifacts_is_a_failure(self, tmp_path):
        bench_dir = tmp_path / "empty"
        bench_dir.mkdir()
        out = io.StringIO()
        code = run_gate(
            repo_root=str(tmp_path),
            bench_dir=str(bench_dir),
            skip_run=True,
            out=out,
        )
        assert code == 1
        assert "no BENCH_*.json artifacts" in out.getvalue()

    def test_gate_appends_environment_stamped_history(self, tmp_path):
        self.run(tmp_path, {"events_per_sec": 100.0}, {"events_per_sec": 100.0})
        history = tmp_path / "current" / "history.jsonl"
        lines = history.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["cpu_count"] == CPUS
        assert record["benchmarks"]["load"]["events_per_sec"] == 100.0
        assert "timestamp" in record and "python" in record

    def test_cli_wrapper_fails_on_injected_regression(self, tmp_path):
        """End to end through the actual CLI entry point: ``repro bench
        --check`` must exit non-zero on the injected 30% drop."""
        import repro.cli as cli

        baseline_dir = tmp_path / "baseline"
        bench_dir = tmp_path / "current"
        baseline_dir.mkdir()
        bench_dir.mkdir()
        write_bench(str(baseline_dir), "load", {"events_per_sec": 1000.0})
        write_bench(str(bench_dir), "load", {"events_per_sec": 700.0})
        code = cli.main(
            [
                "bench",
                "--check",
                "--skip-run",
                "--bench-dir",
                str(bench_dir),
                "--baseline-dir",
                str(baseline_dir),
            ]
        )
        assert code == 1


class TestReadBenchDir:
    def test_ignores_malformed_and_foreign_files(self, tmp_path):
        write_bench(str(tmp_path), "load", {"events_per_sec": 1.0})
        (tmp_path / "BENCH_broken.json").write_text("{not json")
        (tmp_path / "BENCH_shapeless.json").write_text('{"metrics": 3}')
        (tmp_path / "notes.txt").write_text("hello")
        payloads = read_bench_dir(str(tmp_path))
        assert sorted(payloads) == ["load"]

    def test_append_history_accumulates(self, tmp_path):
        path = str(tmp_path / "history.jsonl")
        currents = {"load": {"metrics": {"events_per_sec": 5.0}}}
        append_history(path, currents)
        append_history(path, currents)
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line)["benchmarks"]["load"] for line in lines)
