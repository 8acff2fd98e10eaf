"""How far does identical code disagree with itself?

``python3 -m bench aa`` runs every workload twice on one seed, A/B/A/B
interleaved, and prints each end-to-end metric's relative gap beside its
bound; a gap above the bound is a breach and the exit code is non-zero.
This is what sets the bounds in ``BENCHMARK.json``: a timing bound is
max(0.03, 2 × the largest gap seen over at least three A/A pairs), so run
it on at least three seeds.

Each run is its own process (peak RSS is per process); results land in
git-ignored ``bench/out/``, never in tracked files.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Dict, List


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, float]:
    """One ``bench run`` in a fresh process; returns ``{metric: value}``."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    done = subprocess.run(
        [
            sys.executable, "-m", "bench", "run",
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=repo,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise RuntimeError(
            f"bench run {workload} seed {seed} exited {done.returncode}:\n{done.stderr}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def run_aa(contract: dict, seed: int, seconds: float, out_dir: str) -> int:
    workloads = [entry["name"] for entry in contract["workloads"]]
    results: Dict[str, List[Dict[str, float]]] = {name: [] for name in workloads}
    for side in "AB":
        for name in workloads:
            print(f"run {side} {name} ...", flush=True)
            results[name].append(run_once(name, seed, seconds))
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"aa-seed{seed}.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1)
        handle.write("\n")
    breaches = 0
    print(f"{'workload':12s} {'metric':22s} {'A':>12s} {'B':>12s} {'gap':>8s} {'bound':>7s}")
    for name in workloads:
        first, second = results[name]
        for entry in contract["end_to_end"]:
            metric = entry["name"]
            gap = abs(second[metric] - first[metric]) / first[metric]
            breach = gap > entry["bound"]
            breaches += breach
            print(
                f"{name:12s} {metric:22s} {first[metric]:12.4f} {second[metric]:12.4f} "
                f"{gap:8.4f} {entry['bound']:7.3f}{'  BREACH' if breach else ''}"
            )
    print(f"{breaches} breach(es)")
    return 1 if breaches else 0
