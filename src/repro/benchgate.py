"""The benchmark regression gate behind ``repro bench``.

The repository's perf trajectory lives in the committed
``benchmarks/BENCH_*.json`` artifacts.  This module turns them into a
gate: run the benchmark suite, append the fresh numbers (with their
environment stamp) to ``benchmarks/history.jsonl``, diff the key metrics
against the committed baselines, and fail loudly — a readable delta
table plus a non-zero exit — when any gated metric regresses by more
than :data:`DEFAULT_THRESHOLD`.

Two classes of gated metric, because the CI container has one CPU and a
developer laptop does not:

* ``"ratio"`` metrics (success ratios, completeness, deterministic
  counts) are machine-independent and always gated.
* ``"rate"`` metrics (queries/sec, events/sec) are wall-clock throughput
  and only gated when the baseline artifact's ``cpu_count`` stamp matches
  the current machine — otherwise the comparison is reported but skipped.

Used by ``tools/bench_check.py`` (the standalone script CI calls) and the
``repro bench`` CLI subcommand; both are thin wrappers over
:func:`run_gate`.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.envinfo import environment_stamp

#: relative drop that fails the gate (0.25 = a >25% regression)
DEFAULT_THRESHOLD = 0.25

#: gated metrics per benchmark artifact, all higher-is-better.
#: "rate" = wall-clock throughput (cpu_count-aware), "ratio" = machine-independent.
GATED_METRICS: Dict[str, Dict[str, str]] = {
    "load": {
        "events_per_sec": "rate",
        "queries_per_sec": "rate",
    },
    "faults": {
        "success_ratio_resilient": "ratio",
        "success_ratio_basic": "ratio",
        "completeness_resilient": "ratio",
    },
    "sweep": {
        "records_identical": "ratio",
    },
    "livefaults": {
        "success_ratio": "ratio",
        "mean_completeness": "ratio",
        "converged": "ratio",
    },
}


@dataclass
class Delta:
    """One gated metric's baseline-vs-current comparison."""

    bench: str
    metric: str
    kind: str
    baseline: Optional[float]
    current: Optional[float]
    #: "ok" | "regressed" | "skipped-cpu" | "missing"
    status: str

    @property
    def change(self) -> Optional[float]:
        """Relative change vs baseline (+0.10 = 10% better), or ``None``."""
        if self.baseline is None or self.current is None or self.baseline == 0:
            return None
        return (self.current - self.baseline) / abs(self.baseline)


def read_bench_dir(directory: str) -> Dict[str, Dict[str, Any]]:
    """Read every ``BENCH_<name>.json`` in ``directory``, keyed by name."""
    payloads: Dict[str, Dict[str, Any]] = {}
    if not os.path.isdir(directory):
        return payloads
    for filename in sorted(os.listdir(directory)):
        if not (filename.startswith("BENCH_") and filename.endswith(".json")):
            continue
        path = os.path.join(directory, filename)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and isinstance(payload.get("metrics"), dict):
            payloads[payload.get("name", filename[len("BENCH_") : -len(".json")])] = payload
    return payloads


def read_committed_baselines(repo_root: str, bench_dir: str = "benchmarks") -> Dict[str, Dict[str, Any]]:
    """The baselines as committed at ``HEAD`` (via ``git show``).

    Falls back to an empty dict outside a git checkout — callers then use
    the on-disk artifacts captured *before* the suite reran.
    """
    try:
        listing = subprocess.run(
            ["git", "ls-tree", "--name-only", "HEAD", f"{bench_dir}/"],
            cwd=repo_root,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {}
    if listing.returncode != 0:
        return {}
    payloads: Dict[str, Dict[str, Any]] = {}
    for path in listing.stdout.split():
        name = os.path.basename(path)
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        try:
            shown = subprocess.run(
                ["git", "show", f"HEAD:{path}"],
                cwd=repo_root,
                capture_output=True,
                text=True,
                timeout=30,
            )
            payload = json.loads(shown.stdout) if shown.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired, json.JSONDecodeError):
            continue
        if isinstance(payload, dict) and isinstance(payload.get("metrics"), dict):
            payloads[payload.get("name", name[len("BENCH_") : -len(".json")])] = payload
    return payloads


def compare(
    baselines: Dict[str, Dict[str, Any]],
    currents: Dict[str, Dict[str, Any]],
    threshold: float = DEFAULT_THRESHOLD,
    cpu_count: Optional[int] = None,
) -> List[Delta]:
    """Diff every gated metric; ``cpu_count`` defaults to this machine's."""
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    deltas: List[Delta] = []
    for bench, metrics in GATED_METRICS.items():
        baseline_payload = baselines.get(bench)
        current_payload = currents.get(bench)
        for metric, kind in metrics.items():
            base = (baseline_payload or {}).get("metrics", {}).get(metric)
            cur = (current_payload or {}).get("metrics", {}).get(metric)
            if not isinstance(base, (int, float)) or isinstance(base, bool):
                base = None
            if not isinstance(cur, (int, float)) or isinstance(cur, bool):
                cur = None
            if base is None or cur is None:
                # A metric absent on both sides isn't worth a table row.
                if base is not None or cur is not None:
                    deltas.append(Delta(bench, metric, kind, base, cur, "missing"))
                continue
            if kind == "rate":
                baseline_cpus = (baseline_payload or {}).get("cpu_count")
                if baseline_cpus is None or baseline_cpus != cpu_count:
                    deltas.append(Delta(bench, metric, kind, base, cur, "skipped-cpu"))
                    continue
            regressed = base > 0 and cur < base * (1.0 - threshold)
            deltas.append(
                Delta(bench, metric, kind, base, cur, "regressed" if regressed else "ok")
            )
    return deltas


def format_table(deltas: List[Delta], threshold: float = DEFAULT_THRESHOLD) -> str:
    """The human-readable delta table the gate prints."""
    header = f"{'benchmark':<10} {'metric':<28} {'baseline':>14} {'current':>14} {'change':>9}  status"
    lines = [header, "-" * len(header)]
    for delta in deltas:
        base = f"{delta.baseline:,.3f}" if delta.baseline is not None else "-"
        cur = f"{delta.current:,.3f}" if delta.current is not None else "-"
        change = f"{delta.change:+.1%}" if delta.change is not None else "-"
        status = {
            "ok": "ok",
            "regressed": f"REGRESSED (> {threshold:.0%} drop)",
            "skipped-cpu": "skipped (cpu_count mismatch)",
            "missing": "no baseline / not measured",
        }[delta.status]
        lines.append(
            f"{delta.bench:<10} {delta.metric:<28} {base:>14} {cur:>14} {change:>9}  {status}"
        )
    return "\n".join(lines)


def append_history(
    history_path: str, currents: Dict[str, Dict[str, Any]], repo_root: Optional[str] = None
) -> Dict[str, Any]:
    """Append one timestamped record of every artifact's metrics.

    ``benchmarks/history.jsonl`` is the repository's perf time series:
    one JSON line per ``repro bench`` run, stamped with the environment
    (git SHA, platform, cpu_count) so regressions can be localised to a
    commit *and* attributed to the machine that measured them.
    """
    record = {
        **environment_stamp(repo_root),
        "benchmarks": {
            name: payload.get("metrics", {}) for name, payload in sorted(currents.items())
        },
    }
    os.makedirs(os.path.dirname(os.path.abspath(history_path)), exist_ok=True)
    with open(history_path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    return record


def run_suite(repo_root: str, bench_dir: str = "benchmarks") -> int:
    """Run the benchmark suite (regenerates the ``BENCH_*.json`` files)."""
    env = dict(os.environ)
    src = os.path.join(repo_root, "src")
    if os.path.isdir(src):
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", bench_dir],
        cwd=repo_root,
        env=env,
    )
    return completed.returncode


def run_gate(
    repo_root: str = ".",
    bench_dir: Optional[str] = None,
    baseline_dir: Optional[str] = None,
    check: bool = False,
    skip_run: bool = False,
    threshold: float = DEFAULT_THRESHOLD,
    history: bool = True,
    out=None,
) -> int:
    """The full ``repro bench`` flow; returns the process exit code.

    1. Capture baselines: ``baseline_dir`` if given, else the artifacts
       committed at git ``HEAD``, else the on-disk files before the run.
    2. Run the benchmark suite (unless ``skip_run``), regenerating the
       on-disk ``BENCH_*.json``.
    3. Append the fresh metrics to ``benchmarks/history.jsonl``.
    4. Print the delta table; with ``check=True`` a gated regression
       beyond ``threshold`` (or a failed suite) is a non-zero exit.
    """
    write = (out or sys.stdout).write
    bench_path = bench_dir if bench_dir is not None else os.path.join(repo_root, "benchmarks")
    if baseline_dir is not None:
        baselines = read_bench_dir(baseline_dir)
    else:
        baselines = read_committed_baselines(repo_root)
        if not baselines:
            baselines = read_bench_dir(bench_path)
    suite_rc = 0
    if not skip_run:
        suite_rc = run_suite(repo_root, bench_path)
        if suite_rc != 0:
            write(f"benchmark suite failed (exit {suite_rc}); gating on stale artifacts\n")
    currents = read_bench_dir(bench_path)
    if not currents:
        write(f"no BENCH_*.json artifacts found under {bench_path}\n")
        return 1
    if history:
        append_history(os.path.join(bench_path, "history.jsonl"), currents, repo_root)
    deltas = compare(baselines, currents, threshold=threshold)
    write(format_table(deltas, threshold) + "\n")
    regressions = [delta for delta in deltas if delta.status == "regressed"]
    if regressions:
        write(
            f"\n{len(regressions)} gated metric(s) regressed by more than "
            f"{threshold:.0%} vs baseline\n"
        )
    else:
        write(f"\nno gated metric regressed by more than {threshold:.0%}\n")
    if check and (regressions or suite_rc != 0):
        return 1
    return 0
