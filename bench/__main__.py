"""Command line of the benchmark.

``python3 -m bench run --workload W --seed N --seconds S --trace 0|1``
runs one workload and prints every metric by name with its unit, then —
as the last line of standard output — one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (names and units
come from ``BENCHMARK.json``).

``python3 -m bench aa`` runs every workload twice to show how far
identical code disagrees with itself (see ``bench/aa.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(REPO, "bench", "out")


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(args: argparse.Namespace) -> int:
    src = os.path.join(REPO, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"bench: no program to measure: {src}/repro is missing", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String-hash randomisation gives every process its own dict and set
        # layout; on live-wide that alone moved ops_per_s by 10 % between
        # identical runs (quartile spread 6.7 %, 0.8 % with it pinned).
        # Start again with it switched off.
        os.environ["PYTHONHASHSEED"] = "0"
        os.chdir(REPO)
        os.execv(sys.executable, [sys.executable, "-m", "bench", *sys.argv[1:]])
    sys.path.insert(0, src)
    import asyncio

    from bench.harness import run_untraced
    from bench.layers import run_traced
    from bench.workloads import WORKLOADS

    contract = load_contract()
    spec = WORKLOADS[args.workload]
    if args.trace:
        outcome = asyncio.run(run_traced(spec, args.seed, args.seconds, OUT_DIR))
        wanted = contract["per_layer"]
    else:
        outcome = asyncio.run(run_untraced(spec, args.seed, args.seconds))
        wanted = contract["end_to_end"]
    metrics = {
        entry["name"]: {"value": outcome.metrics[entry["name"]], "unit": entry["unit"]}
        for entry in wanted
    }
    print(f"workload {spec.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']:14.4f} {metric['unit']}")
    for name, value in (outcome.machine or {}).items():
        print(f"{name:32s} {value:14.4f} (uncorrected, not gated)")
    correct = outcome.failed == 0
    if not correct:
        print(
            f"bench: {outcome.failed} of {outcome.attempted} operations failed; "
            f"first: {outcome.first_mismatch}",
            file=sys.stderr,
        )
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one workload once")
    run_parser.add_argument("--workload", required=True)
    run_parser.add_argument("--seed", type=int, default=7)
    run_parser.add_argument("--seconds", type=float, default=None)
    run_parser.add_argument("--trace", type=int, choices=(0, 1), default=0)

    aa_parser = commands.add_parser(
        "aa", help="every workload twice, A/B interleaved: gap of each metric vs its bound"
    )
    aa_parser.add_argument("--seed", type=int, default=7)
    aa_parser.add_argument("--seconds", type=float, default=None)

    args = parser.parse_args(argv)
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    names = [entry["name"] for entry in contract["workloads"]]
    if args.command == "run":
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r} (known: {', '.join(names)})")
        return run(args)
    from bench import aa

    return aa.run_aa(contract, args.seed, args.seconds, OUT_DIR)


if __name__ == "__main__":
    sys.exit(main())
