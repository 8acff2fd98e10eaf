"""Command-line entry point: regenerate the paper's tables and figures.

Examples
--------
Run everything with the quick (CI-sized) configuration::

    armada-repro all --profile quick

Reproduce Figure 5/6 with the paper's full query count and write the CSV
series next to the terminal output::

    armada-repro figures-rangesize --profile paper --csv-dir results/
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, Optional

from repro.analysis.store import ResultStore
from repro.experiments import analytics as analytics_experiment
from repro.experiments import ablation as ablation_experiment
from repro.experiments import figures_netsize, figures_rangesize
from repro.experiments import fissione_props as fissione_experiment
from repro.experiments import faults as faults_experiment
from repro.experiments import load as load_experiment
from repro.experiments import mira as mira_experiment
from repro.experiments import postmortem as postmortem_experiment
from repro.experiments import livefaults as livefaults_experiment
from repro.experiments import soak as soak_experiment
from repro.experiments import tracecmd
from repro.experiments import table1 as table1_experiment
from repro.experiments import orchestrator
from repro.experiments.common import ExperimentConfig
from repro.runtime.server import ServeSettings, serve as serve_runtime

_COMMANDS = (
    "table1",
    "figures-rangesize",
    "figures-netsize",
    "analytics",
    "fissione",
    "mira",
    "ablation",
    "load",
    "sweep",
    "faults",
    "serve",
    "soak",
    "livefaults",
    "trace",
    "replay",
    "all",
)

#: live commands default to a small cluster, not the simulator's 2000 peers
_LIVE_DEFAULT_PEERS = 32
_LIVE_DEFAULT_QUERIES = 1000


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="armada-repro",
        description="Reproduce the tables and figures of the Armada paper (ICDCS 2006).",
    )
    parser.add_argument("command", choices=_COMMANDS, help="experiment to run")
    parser.add_argument(
        "dumps",
        nargs="*",
        metavar="DUMP",
        help=(
            "replay only: flight-recorder .dump files to merge and re-execute "
            "(exits non-zero at the first divergence from the recording)"
        ),
    )
    parser.add_argument(
        "--profile",
        choices=("quick", "default", "paper"),
        default="default",
        help="experiment size: quick (seconds), default, or paper (1000 queries/point)",
    )
    parser.add_argument("--peers", type=int, default=None, help="override the network size")
    parser.add_argument(
        "--queries", type=int, default=None, help="override the number of queries per point"
    )
    parser.add_argument("--objects", type=int, default=None, help="override the number of objects")
    parser.add_argument("--seed", type=int, default=None, help="override the experiment seed")
    parser.add_argument(
        "--csv-dir", default=None, help="directory to write figure CSV series into"
    )
    parser.add_argument(
        "--rates",
        default=None,
        help="comma-separated offered rates for the load sweep (queries per sim unit)",
    )
    parser.add_argument(
        "--churn",
        action="store_true",
        help="interleave periodic join/leave events with the load sweep's queries",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="sweep only: process-pool size (1 = serial reference path)",
    )
    parser.add_argument(
        "--store",
        default=None,
        help=(
            "sweep/faults/soak/livefaults: JSONL result-store path; records "
            "stream into <path>.tmp and replace <path> on success, so each run "
            "is a clean snapshot and a crash leaves the previous file untouched"
        ),
    )
    parser.add_argument(
        "--schemes",
        default=None,
        help=(
            "sweep only: comma-separated scheme names "
            f"(default {','.join(orchestrator.DEFAULT_SCHEMES)}; "
            f"available: {','.join(sorted(orchestrator.SCHEME_FACTORIES))})"
        ),
    )
    parser.add_argument(
        "--network-sizes",
        default=None,
        help="sweep only: comma-separated network sizes (default: the profile's peers)",
    )
    parser.add_argument(
        "--range-sizes",
        default=None,
        help="sweep only: comma-separated range sizes (default: the profile's range sizes)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        default=1,
        help=(
            "sweep/faults: independent repetitions of every grid point; "
            "soak: durable copies per insert (owner + prefix siblings, "
            "acked only after every copy is synced)"
        ),
    )
    parser.add_argument(
        "--failed-fraction",
        default=None,
        help=(
            "faults only: comma-separated fractions of peers crash-stopped "
            f"at time zero (default {','.join(str(f) for f in faults_experiment.DEFAULT_FRACTIONS)})"
        ),
    )
    parser.add_argument(
        "--scheme",
        default=None,
        help=(
            "faults only: comma-separated scheme variants "
            f"(default {','.join(faults_experiment.DEFAULT_FAULT_SCHEMES)}; "
            f"available: {','.join(faults_experiment.FAULT_SCHEMES)})"
        ),
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=4.0,
        help="faults only: per-hop timeout in simulated units",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=2,
        help="faults only: retransmissions per hop after the initial send",
    )
    parser.add_argument(
        "--no-reroute",
        action="store_true",
        help="faults only: disable sibling rerouting around dead hops",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        default=None,
        help=(
            "per-query deadline: simulated units for faults (default derived "
            "from N and the retry budget), wall-clock seconds for serve/soak "
            "(default 5.0)"
        ),
    )
    parser.add_argument(
        "--host",
        default="127.0.0.1",
        help="serve/soak: interface the live cluster binds on",
    )
    parser.add_argument(
        "--port",
        type=int,
        default=7411,
        help="serve only: gateway port (0 picks an ephemeral port)",
    )
    parser.add_argument(
        "--nodes",
        type=int,
        default=None,
        help=(
            "serve/soak: peer-node count; peers are distributed round-robin "
            "(default: serve hosts one node per peer, soak uses 8)"
        ),
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=16,
        help="soak only: closed-loop client population",
    )
    parser.add_argument(
        "--mira-fraction",
        type=float,
        default=0.2,
        help="soak only: fraction of queries that are multi-attribute (MIRA)",
    )
    parser.add_argument(
        "--pool",
        type=int,
        default=4,
        help="soak only: session connection-pool size",
    )
    parser.add_argument(
        "--storage",
        choices=("memory", "wal", "sqlite"),
        default="memory",
        help=(
            "soak only: peer storage backend — memory (default, volatile), "
            "wal (append-only checksummed log per peer) or sqlite"
        ),
    )
    parser.add_argument(
        "--data-dir",
        default=None,
        help=(
            "soak only: directory for the durable per-peer logs "
            "(default: a fresh temp dir per run)"
        ),
    )
    parser.add_argument(
        "--kill-restart",
        action="store_true",
        help=(
            "soak only: after seeding, hard-kill one peer (volatile state "
            "and unsynced bytes dropped), restart it from its log, and fail "
            "the run unless every acknowledged write survived"
        ),
    )
    parser.add_argument(
        "--kill-peer",
        action="store_true",
        help=(
            "soak only: after seeding, hard-kill one peer and withdraw its "
            "route without restarting it, so queries through its subtree "
            "genuinely fail — the forced-failure half of a postmortem drill"
        ),
    )
    parser.add_argument(
        "--record-dir",
        default=None,
        help=(
            "serve/soak: arm the flight recorder; the event ring is dumped "
            "into this directory (soak writes flight.dump at the end of the "
            "run, serve dumps on shutdown and on SIGUSR1)"
        ),
    )
    parser.add_argument(
        "--postmortem-on-fail",
        action="store_true",
        help=(
            "soak only: write the flight.dump only when the run lost queries "
            "(success ratio < 1), keeping healthy CI runs dump-free"
        ),
    )
    parser.add_argument(
        "--timeline",
        action="store_true",
        help=(
            "replay only: render a terminal timeline of the recorded event "
            "tail, centred on the divergence when one is found"
        ),
    )
    parser.add_argument(
        "--cprofile",
        default=None,
        metavar="PATH",
        help=(
            "soak/load: run the experiment under cProfile, dump the pstats "
            "file to PATH and print the top-20 functions by cumulative time "
            "(named --cprofile because --profile selects the experiment size)"
        ),
    )
    parser.add_argument(
        "--require-pipelined",
        type=int,
        default=None,
        help=(
            "soak only: exit non-zero unless the gateway observed at least "
            "this many concurrently in-flight requests (proof of "
            "multiplexing, via the stats peak_in_flight field)"
        ),
    )
    parser.add_argument(
        "--require-success",
        type=float,
        default=None,
        help=(
            "soak/livefaults: exit non-zero unless the success ratio reaches "
            "this bound"
        ),
    )
    parser.add_argument(
        "--gossip",
        action="store_true",
        help=(
            "soak only: run the SWIM gossip membership plane alongside the "
            "soak (livefaults always runs it)"
        ),
    )
    parser.add_argument(
        "--fraction",
        type=float,
        default=0.2,
        help="livefaults only: fraction of peers SIGKILLed mid-run",
    )
    parser.add_argument(
        "--kill-after",
        type=float,
        default=0.25,
        help=(
            "livefaults only: fraction of the workload that must complete "
            "before the victims are killed"
        ),
    )
    parser.add_argument(
        "--require-convergence",
        action="store_true",
        help=(
            "livefaults only: exit non-zero unless every surviving membership "
            "view converged on the deaths"
        ),
    )
    parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        help=(
            "serve/soak: expose the metric registry as Prometheus text on "
            "this port at /metrics (0 picks an ephemeral port; off by default)"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="serve/soak/load: structured-logging threshold for the repro loggers",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="serve/soak/load: emit log records as JSON objects (one per line)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help=(
            "soak/trace: write a Chrome trace_event JSON of the collected "
            "span trees to this path (load it in Perfetto or chrome://tracing)"
        ),
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        help="trace only: write the spans as JSON lines to this path",
    )
    parser.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help=(
            "trace only: run the traced query against a live gateway "
            "instead of the simulator (negotiates the v2 tracing capability)"
        ),
    )
    parser.add_argument(
        "--low",
        type=float,
        default=400.0,
        help="trace only: lower bound of the traced range query",
    )
    parser.add_argument(
        "--high",
        type=float,
        default=420.0,
        help="trace only: upper bound of the traced range query",
    )
    parser.add_argument(
        "--origin",
        default=None,
        help="trace only: origin peer id (default: a seeded random peer)",
    )
    return parser


def parse_rates(text: Optional[str]):
    """Parse ``--rates`` (``\"0.5,1,2\"``) into a tuple of floats, or ``None``."""
    if text is None:
        return None
    try:
        rates = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise SystemExit(f"invalid --rates value {text!r}: {exc}")
    if not rates or any(rate <= 0 for rate in rates):
        raise SystemExit(f"--rates needs one or more positive numbers, got {text!r}")
    return rates


def _parse_number_list(text: Optional[str], flag: str, cast):
    """Parse a comma-separated numeric flag value, or ``None`` when unset."""
    if text is None:
        return None
    try:
        values = tuple(cast(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise SystemExit(f"invalid {flag} value {text!r}: {exc}")
    if not values:
        raise SystemExit(f"{flag} needs at least one number, got {text!r}")
    return values


def make_sweep_spec(args: argparse.Namespace, config: ExperimentConfig):
    """Resolve the sweep grid from the CLI arguments."""
    if args.scheme is not None:
        raise SystemExit("--scheme selects faults variants; use --schemes for sweep")
    schemes = (
        tuple(part.strip() for part in args.schemes.split(",") if part.strip())
        if args.schemes is not None
        else orchestrator.DEFAULT_SCHEMES
    )
    try:
        return orchestrator.SweepSpec.from_config(
            config,
            schemes=schemes,
            network_sizes=_parse_number_list(args.network_sizes, "--network-sizes", int),
            range_sizes=_parse_number_list(args.range_sizes, "--range-sizes", float),
            replicas=args.replicas,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def make_faults_spec(args: argparse.Namespace, config: ExperimentConfig):
    """Resolve the robustness grid from the CLI arguments."""
    if args.schemes is not None:
        raise SystemExit("--schemes selects sweep schemes; use --scheme for faults")
    schemes = (
        tuple(part.strip() for part in args.scheme.split(",") if part.strip())
        if args.scheme is not None
        else faults_experiment.DEFAULT_FAULT_SCHEMES
    )
    try:
        return faults_experiment.FaultSweepSpec.from_config(
            config,
            schemes=schemes,
            fractions=_parse_number_list(args.failed_fraction, "--failed-fraction", float),
            replicas=args.replicas,
            timeout=args.timeout,
            retries=args.retries,
            reroute=not args.no_reroute,
            deadline=args.deadline,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def make_serve_settings(args: argparse.Namespace, config: ExperimentConfig) -> ServeSettings:
    """Resolve the live-serving settings from the CLI arguments."""
    try:
        return ServeSettings(
            peers=args.peers if args.peers is not None else _LIVE_DEFAULT_PEERS,
            seed=config.seed,
            host=args.host,
            port=args.port,
            nodes=args.nodes,
            deadline=args.deadline if args.deadline is not None else 5.0,
            attribute_interval=(config.attribute_low, config.attribute_high),
            attribute_intervals=(
                (config.attribute_low, config.attribute_high),
                (config.attribute_low, config.attribute_high),
            ),
            metrics_port=args.metrics_port,
            log_level=args.log_level,
            log_json=args.log_json,
            record_dir=args.record_dir,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def make_soak_spec(args: argparse.Namespace, config: ExperimentConfig):
    """Resolve the soak-run spec from the CLI arguments."""
    if args.require_success is not None and not 0.0 <= args.require_success <= 1.0:
        raise SystemExit(
            f"--require-success must be within [0, 1], got {args.require_success}"
        )
    if args.require_pipelined is not None and args.require_pipelined < 1:
        raise SystemExit(
            f"--require-pipelined must be at least 1, got {args.require_pipelined}"
        )
    try:
        return soak_experiment.SoakSpec(
            peers=args.peers if args.peers is not None else _LIVE_DEFAULT_PEERS,
            nodes=args.nodes if args.nodes is not None else 8,
            queries=args.queries if args.queries is not None else _LIVE_DEFAULT_QUERIES,
            concurrency=args.concurrency,
            objects=args.objects if args.objects is not None else 1000,
            seed=config.seed,
            range_size=config.fixed_range_size,
            mira_fraction=args.mira_fraction,
            deadline=args.deadline if args.deadline is not None else 5.0,
            attribute_interval=(config.attribute_low, config.attribute_high),
            pool=args.pool,
            storage=args.storage,
            data_dir=args.data_dir,
            replicas=args.replicas,
            kill_restart=args.kill_restart,
            metrics_port=args.metrics_port,
            trace_out=args.trace_out,
            record_dir=args.record_dir,
            postmortem_on_fail=args.postmortem_on_fail,
            kill_peer=args.kill_peer,
            gossip=args.gossip,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def make_livefaults_spec(args: argparse.Namespace, config: ExperimentConfig):
    """Resolve the live-faults spec from the CLI arguments."""
    if args.require_success is not None and not 0.0 <= args.require_success <= 1.0:
        raise SystemExit(
            f"--require-success must be within [0, 1], got {args.require_success}"
        )
    try:
        return livefaults_experiment.LiveFaultsSpec(
            peers=args.peers if args.peers is not None else _LIVE_DEFAULT_PEERS,
            nodes=args.nodes if args.nodes is not None else 8,
            queries=args.queries if args.queries is not None else 400,
            concurrency=args.concurrency,
            objects=args.objects if args.objects is not None else 300,
            # Not config.seed: the default run is the one
            # tests/paper/test_livefaults.py holds against the sim figure.
            seed=args.seed if args.seed is not None else 1,
            fraction=args.fraction,
            range_size=config.fixed_range_size,
            mira_fraction=args.mira_fraction,
            deadline=args.deadline if args.deadline is not None else 5.0,
            attribute_interval=(config.attribute_low, config.attribute_high),
            pool=args.pool,
            kill_after_fraction=args.kill_after,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def make_trace_spec(args: argparse.Namespace, config: ExperimentConfig):
    """Resolve the traced-query spec from the CLI arguments."""
    try:
        return tracecmd.TraceSpec(
            low=args.low,
            high=args.high,
            connect=args.connect,
            origin=args.origin,
            peers=args.peers if args.peers is not None else 64,
            seed=config.seed,
            objects=args.objects if args.objects is not None else 500,
            deadline=args.deadline if args.deadline is not None else 5.0,
            attribute_interval=(config.attribute_low, config.attribute_high),
            trace_out=args.trace_out,
            trace_jsonl=args.trace_jsonl,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve the experiment configuration from the CLI arguments."""
    if args.profile == "quick":
        config = ExperimentConfig.quick()
    elif args.profile == "paper":
        config = ExperimentConfig.paper()
    else:
        config = ExperimentConfig()
    overrides = {}
    if args.peers is not None:
        overrides["peers"] = args.peers
    if args.queries is not None:
        overrides["queries_per_point"] = args.queries
    if args.objects is not None:
        overrides["objects"] = args.objects
    if args.seed is not None:
        overrides["seed"] = args.seed
    return config.with_overrides(**overrides) if overrides else config


def _replace_store(store_path: str, records) -> str:
    """Atomically replace ``store_path`` with the given records.

    Streams into ``<path>.tmp`` and renames on success, so re-running the
    same command never duplicates records and a crashed or interrupted run
    leaves any previous result file untouched.  Returns a summary line.
    """
    scratch = ResultStore(store_path + ".tmp")
    scratch.clear()
    count = 0
    for record in records:
        scratch.append(record)
        count += 1
    os.replace(scratch.path, store_path)
    return f"streamed {count} records into {store_path}"


def _write_csvs(csv_dir: Optional[str], csvs: Dict[str, str]) -> None:
    if csv_dir is None:
        return
    os.makedirs(csv_dir, exist_ok=True)
    for name, text in csvs.items():
        path = os.path.join(csv_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {path}")


def run_command(
    command: str,
    config: ExperimentConfig,
    csv_dir: Optional[str] = None,
    rates=None,
    churn: bool = False,
    sweep_spec=None,
    workers: int = 1,
    store_path: Optional[str] = None,
    soak_spec=None,
    require_success: Optional[float] = None,
    require_pipelined: Optional[int] = None,
    trace_spec=None,
    postmortem_spec=None,
    livefaults_spec=None,
    require_convergence: bool = False,
) -> str:
    """Run one experiment command and return its formatted output."""
    if command == "replay":
        from repro.obs.recorder import DumpError
        from repro.obs.replay import ReplayError

        if postmortem_spec is None:
            raise SystemExit("replay needs at least one DUMP file argument")
        try:
            result = postmortem_experiment.run(postmortem_spec)
        except (DumpError, ReplayError) as exc:
            raise SystemExit(f"replay failed: {exc}") from exc
        output = result.format()
        if not result.ok:
            # The divergence is the finding: print the full report and make
            # the exit code say "the recording does not replay cleanly".
            raise SystemExit(output)
        return output
    if command == "trace":
        result = tracecmd.run(
            trace_spec if trace_spec is not None else tracecmd.TraceSpec()
        )
        return result.format()
    if command == "soak":
        spec = soak_spec if soak_spec is not None else soak_experiment.SoakSpec()
        result = soak_experiment.run(spec)
        parts = [result.format()]
        if store_path is not None:
            parts.append(_replace_store(store_path, [result.record()]))
        output = "\n\n".join(parts)
        if require_success is not None and result.report.success_ratio < require_success:
            raise SystemExit(
                output
                + f"\n\nsoak failed: success ratio {result.report.success_ratio:.4f}"
                f" below the required {require_success:g}"
            )
        if require_pipelined is not None:
            observed = int(result.stats.get("peak_in_flight", 0))
            if observed < require_pipelined:
                raise SystemExit(
                    output
                    + f"\n\nsoak failed: gateway peak in-flight {observed}"
                    f" below the required pipelining depth {require_pipelined}"
                )
        return output
    if command == "livefaults":
        spec = (
            livefaults_spec
            if livefaults_spec is not None
            else livefaults_experiment.LiveFaultsSpec()
        )
        result = livefaults_experiment.run(spec)
        parts = [result.format()]
        if store_path is not None:
            parts.append(_replace_store(store_path, [result.record()]))
        output = "\n\n".join(parts)
        if require_success is not None and result.success_ratio < require_success:
            raise SystemExit(
                output
                + f"\n\nlivefaults failed: success ratio {result.success_ratio:.4f}"
                f" below the required {require_success:g}"
            )
        if require_convergence and not result.converged:
            raise SystemExit(
                output
                + "\n\nlivefaults failed: membership views did not converge on "
                f"the deaths within {spec.convergence_timeout:g}s"
            )
        return output
    if command in ("sweep", "faults"):
        if command == "sweep":
            spec = (
                sweep_spec
                if sweep_spec is not None
                else orchestrator.SweepSpec.from_config(config)
            )
            runner = orchestrator.run_sweep
        else:
            spec = (
                sweep_spec
                if sweep_spec is not None
                else faults_experiment.FaultSweepSpec.from_config(config)
            )
            runner = faults_experiment.run_sweep
        # Stream into a scratch file and rename on success: re-running the
        # same command never duplicates records, and a crashed or
        # interrupted sweep leaves any previous result file untouched.
        scratch = ResultStore(store_path + ".tmp") if store_path is not None else None
        if scratch is not None:
            scratch.clear()
        outcome = runner(spec, workers=workers, store=scratch)
        parts = [outcome.format()]
        if scratch is not None and store_path is not None:
            os.replace(scratch.path, store_path)
            parts.append(f"streamed {outcome.jobs} records into {store_path}")
        return "\n\n".join(parts)
    if command == "load":
        result = load_experiment.run(config, rates=rates, churn=churn)
        _write_csvs(csv_dir, result.to_csv())
        return result.format()
    if command == "table1":
        return table1_experiment.run(config).format()
    if command == "figures-rangesize":
        result = figures_rangesize.run(config)
        _write_csvs(csv_dir, result.to_csv())
        return result.format()
    if command == "figures-netsize":
        result = figures_netsize.run(config)
        _write_csvs(csv_dir, result.to_csv())
        return result.format()
    if command == "analytics":
        return analytics_experiment.run(config).format()
    if command == "fissione":
        return fissione_experiment.run(config).format()
    if command == "mira":
        return mira_experiment.run(config).format()
    if command == "ablation":
        return ablation_experiment.run(config).format()
    if command == "all":
        outputs = []
        for sub_command in ("fissione", "table1", "figures-rangesize", "figures-netsize", "analytics", "mira", "ablation", "load", "faults"):
            outputs.append(run_command(sub_command, config, csv_dir, rates=rates, churn=churn))
        return "\n\n".join(outputs)
    raise ValueError(f"unknown command {command!r}")


def main(argv=None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    config = make_config(args)
    if args.command == "serve":
        # Blocking: boots the live cluster and runs until SIGINT/SIGTERM.
        return serve_runtime(make_serve_settings(args, config))
    if args.command in ("soak", "livefaults", "load", "trace"):
        # serve configures logging inside serve_async; the other live-ish
        # commands do it here so --log-level/--log-json apply end to end.
        from repro.obs.logs import configure_logging

        configure_logging(args.log_level, args.log_json)
    spec = None
    soak_spec = None
    trace_spec = None
    postmortem_spec = None
    livefaults_spec = None
    if args.command == "sweep":
        spec = make_sweep_spec(args, config)
    elif args.command == "faults":
        spec = make_faults_spec(args, config)
    elif args.command == "soak":
        soak_spec = make_soak_spec(args, config)
    elif args.command == "livefaults":
        livefaults_spec = make_livefaults_spec(args, config)
    elif args.command == "trace":
        trace_spec = make_trace_spec(args, config)
    elif args.command == "replay":
        if not args.dumps:
            raise SystemExit("replay needs at least one DUMP file argument")
        postmortem_spec = postmortem_experiment.PostmortemSpec(
            dumps=tuple(args.dumps), timeline=args.timeline
        )
    if args.dumps and args.command != "replay":
        raise SystemExit(f"positional DUMP arguments only apply to replay, not {args.command}")

    def _run() -> str:
        return run_command(
            args.command,
            config,
            csv_dir=args.csv_dir,
            rates=parse_rates(args.rates),
            churn=args.churn,
            sweep_spec=spec,
            workers=args.workers,
            store_path=args.store,
            soak_spec=soak_spec,
            require_success=args.require_success,
            require_pipelined=args.require_pipelined,
            trace_spec=trace_spec,
            postmortem_spec=postmortem_spec,
            livefaults_spec=livefaults_spec,
            require_convergence=args.require_convergence,
        )

    if args.cprofile is not None:
        if args.command not in ("soak", "load"):
            raise SystemExit("--cprofile is only supported for the soak and load commands")
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        try:
            output = profiler.runcall(_run)
        finally:
            # Dump even when the run fails a --require-* gate: a failing
            # run's profile is exactly the one worth reading.
            profiler.dump_stats(args.cprofile)
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(20)
            print(f"wrote cProfile stats to {args.cprofile}")
    else:
        output = _run()
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover - direct execution convenience
    sys.exit(main())
