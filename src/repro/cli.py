"""Command-line entry point: regenerate the paper's tables and figures.

Every command is its own subparser, so ``repro <command> --help`` lists
exactly the flags that command reads and a flag it does not read is an
argparse error (exit 2), never silently ignored.

A live command (and ``faults``) exposes a field of its spec by naming it in
:func:`_spec_flags`: the flag's name, type and default are the field's, and
its help is the field's ``#:`` comment, so a field is described once, in
its spec.  Only flags that set no spec field (``--profile``, ``--store``,
``--require-*``, the comma lists, ...) are written out here.

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
import inspect
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import lru_cache, partial
from typing import (
    Any, Callable, Dict, Iterator, List, Literal, Optional, Tuple, Union,
    get_args, get_origin, get_type_hints,
)  # fmt: skip

from repro.analysis.store import ResultStore
from repro.api.requests import ApiError
from repro.experiments import analytics as analytics_experiment
from repro.experiments import ablation as ablation_experiment
from repro.experiments import figures_netsize, figures_rangesize
from repro.experiments import fissione_props as fissione_experiment
from repro.experiments import faults as faults_experiment
from repro.experiments import load as load_experiment
from repro.experiments import mira as mira_experiment
from repro.experiments import postmortem as postmortem_experiment
from repro.experiments import livefaults as livefaults_experiment
from repro.experiments import tracecmd
from repro.experiments import table1 as table1_experiment
from repro.experiments import orchestrator
from repro.experiments.common import ExperimentConfig
from repro.obs.logs import configure_logging
from repro.runtime.server import ServeSettings, serve as serve_runtime

Handler = Callable[[argparse.Namespace], str]

#: a simulated command's profile overrides: flag -> (the ExperimentConfig
#: field it sets, help text)
_OVERRIDES = {
    "peers": ("peers", "network size"),
    "queries": ("queries_per_point", "number of queries per point"),
    "objects": ("objects", "number of objects"),
    "seed": ("seed", "experiment seed"),
}

#: the fields soak and livefaults both expose, each with its own preset's default
_DRILL_FLAGS = (
    "peers", "nodes", "queries", "objects", "seed", "concurrency", "mira_fraction", "pool",
    "deadline",
)


def _flags() -> argparse.ArgumentParser:
    """An empty parent parser: flags several commands share are declared
    once on one of these and attached only to the commands that read them."""
    return argparse.ArgumentParser(add_help=False)


@lru_cache(maxsize=None)
def _comments(spec: type) -> Dict[str, str]:
    """``{field: its #: comment}`` over ``spec``'s MRO, a subclass's comment winning."""
    comments: Dict[str, str] = {}
    for cls in reversed(spec.__mro__[:-1]):
        comment: List[str] = []
        for line in inspect.getsource(cls).splitlines():
            line = line.strip()
            if line.startswith("#:"):
                comment.append(line[2:].strip())
                continue
            name = line.partition(":")[0]
            if comment and name.isidentifier():
                comments[name] = " ".join(comment).replace("``", "")
            comment = []
    return comments


def _spec_flags(sub: argparse.ArgumentParser, spec: Any, *names: str) -> None:
    """Declare one flag per named field of ``spec`` (a spec class or preset).

    The flag's name, type, default and help are the field's: ``_`` becomes
    ``-`` (``write_replicas`` alone keeps soak's ``--replicas``),
    ``Optional[X]`` reads as ``X``, a ``bool`` is a switch, a ``Literal``
    gives the choices, and the help is the field's ``#:`` comment.
    ``make_spec`` maps the parsed values back by ``dest``.
    """
    cls = spec if isinstance(spec, type) else type(spec)
    hints = get_type_hints(cls)
    for name in names:
        kind = hints[name]
        if get_origin(kind) is Union:
            (kind,) = [arg for arg in get_args(kind) if arg is not type(None)]
        options: Dict[str, Any] = {
            "default": getattr(spec, name),
            "help": f"{_comments(cls)[name]} (default %(default)s)",
        }
        if kind is bool:
            options["action"] = "store_true"
        elif get_origin(kind) is Literal:
            options["choices"] = get_args(kind)
        else:
            options["type"] = kind
        flag = "--" + name.replace("_", "-")
        if name == "write_replicas":  # soak's --replicas; faults' counts repetitions
            flag = "--replicas"
            options.update(dest=name, metavar="REPLICAS")
        sub.add_argument(flag, **options)


def _profile_flags(*overrides: str) -> argparse.ArgumentParser:
    """``--profile`` and ``--seed``, plus the named profile overrides."""
    parent = _flags()
    parent.add_argument(
        "--profile",
        choices=("quick", "default", "paper"),
        default="default",
        help="experiment size: quick (seconds), default, or paper (1000 queries/point)",
    )
    for name in overrides + ("seed",):
        parent.add_argument(
            f"--{name}", type=int, default=None, help=f"override the {_OVERRIDES[name][1]}"
        )
    return parent


def _unit_interval(text: str) -> float:
    """``type=`` of a ratio flag: a float within [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be within [0, 1], got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="armada-repro",
        description="Reproduce the tables and figures of the Armada paper (ICDCS 2006).",
    )
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, handler, parents=(), help: Optional[str] = None):
        # No abbreviations: ``sweep --scheme`` must not read as ``--schemes``.
        sub = commands.add_parser(
            name, parents=list(parents), help=help, description=help, allow_abbrev=False
        )
        sub.set_defaults(handler=handler)
        return sub

    sizing = _profile_flags("peers", "queries", "objects")
    # Commands that sweep config.network_sizes read no --peers; fissione
    # runs no queries and publishes no objects either.
    sized_workload = _profile_flags("queries", "objects")
    topology_only = _profile_flags()

    csv_dir = _flags()
    csv_dir.add_argument(
        "--csv-dir", default=None, help="directory to write figure CSV series into"
    )

    load_shape = _flags()
    load_shape.add_argument(
        "--rates",
        default=None,
        help="comma-separated offered rates for the load sweep (queries per sim unit)",
    )
    load_shape.add_argument(
        "--churn",
        action="store_true",
        help="interleave periodic join/leave events with the load sweep's queries",
    )

    store = _flags()
    store.add_argument(
        "--store",
        default=None,
        help=(
            "JSONL result-store path; records "
            "stream into <path>.tmp and replace <path> on success, so each run "
            "is a clean snapshot and a crash leaves the previous file untouched"
        ),
    )

    grid = _flags()
    grid.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size (1 = serial reference path)",
    )
    grid.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="independent repetitions of every grid point",
    )

    logging_flags = _flags()
    logging_flags.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        default="info",
        help="structured-logging threshold for the repro loggers",
    )
    logging_flags.add_argument(
        "--log-json",
        action="store_true",
        help="emit log records as JSON objects (one per line)",
    )

    cprofile = _flags()
    cprofile.add_argument(
        "--cprofile",
        default=None,
        metavar="PATH",
        help=(
            "run the experiment under cProfile, dump the pstats "
            "file to PATH and print the top-20 functions by cumulative time "
            "(named --cprofile because --profile selects the experiment size)"
        ),
    )

    require_success = _flags()
    require_success.add_argument(
        "--require-success",
        type=_unit_interval,
        default=None,
        help="exit non-zero unless the success ratio reaches this bound",
    )

    for name, experiment, flags, about in (
        ("table1", table1_experiment, sizing,
         "Table 1: qualitative comparison of the range-query schemes"),
        ("analytics", analytics_experiment, sized_workload,
         "the section 4.3.2 delay and message bounds, checked"),
        ("fissione", fissione_experiment, topology_only,
         "FISSIONE degree, PeerID-length and routing properties"),
        ("mira", mira_experiment, sizing, "MIRA multi-attribute range queries"),
        ("ablation", ablation_experiment, sizing, "PIRA with its pruning ablated"),
    ):  # fmt: skip
        command(name, partial(_run_paper, experiment), [flags], help=about)
    for name, experiment, flags, about in (
        ("figures-rangesize", figures_rangesize, sizing,
         "Figures 5/6: delay and messages vs range size"),
        ("figures-netsize", figures_netsize, sized_workload,
         "Figures 7/8: delay and messages vs network size"),
    ):  # fmt: skip
        command(name, partial(_run_figures, experiment), [flags, csv_dir], help=about)
    command(
        "load", _profiled(_run_load),
        [sizing, csv_dir, load_shape, cprofile],
        help="concurrent load sweep on the simulator clock",
    )
    command(
        "all", _run_all, [sizing, csv_dir, load_shape],
        help="every simulated command above, plus faults with its defaults",
    )

    sweep = command(
        "sweep", _run_sweep, [sizing, grid, store],
        help="schemes x network-sizes x range-sizes x replicas grid on a process pool",
    )
    sweep.add_argument(
        "--schemes",
        default=",".join(orchestrator.DEFAULT_SCHEMES),
        help=(
            "comma-separated scheme names "
            "(default %(default)s; "
            f"available: {','.join(sorted(orchestrator.SCHEME_FACTORIES))})"
        ),
    )
    sweep.add_argument(
        "--network-sizes",
        default=None,
        help="comma-separated network sizes (default: the profile's peers)",
    )
    sweep.add_argument(
        "--range-sizes",
        default=None,
        help="comma-separated range sizes (default: the profile's range sizes)",
    )

    faults = command(
        "faults", _run_faults, [sizing, grid, store],
        help="success ratio and completeness vs the fraction of crashed peers",
    )
    faults.add_argument(
        "--failed-fraction",
        default=",".join(str(f) for f in faults_experiment.DEFAULT_FRACTIONS),
        help=(
            "comma-separated fractions of peers crashed once a "
            "quarter of the queries have completed (default %(default)s)"
        ),
    )
    faults.add_argument(
        "--scheme",
        default=",".join(faults_experiment.DEFAULT_FAULT_SCHEMES),
        help=(
            "comma-separated scheme variants "
            "(default %(default)s; "
            f"available: {','.join(faults_experiment.FAULT_SCHEMES)})"
        ),
    )
    _spec_flags(faults, faults_experiment.FaultSweepSpec, "timeout", "retries", "deadline")
    faults.add_argument(
        "--no-reroute", action="store_true", help="disable sibling rerouting around dead hops"
    )

    serve = command(
        "serve", _run_serve, [logging_flags],
        help="boot a live cluster behind a gateway and serve until SIGINT/SIGTERM",
    )
    _spec_flags(
        serve, ServeSettings,
        "peers", "nodes", "seed", "host", "port", "deadline", "metrics_port", "record_dir",
    )

    soak = command(
        "soak", _logged(_profiled(_run_soak)),
        [require_success, store, logging_flags, cprofile],
        help="sustained mixed PIRA/MIRA load against a live cluster on localhost",
    )
    _spec_flags(
        soak, livefaults_experiment.SOAK, *_DRILL_FLAGS,
        "metrics_port", "record_dir", "trace_out", "storage", "data_dir", "write_replicas",
        "kill_restart", "kill_peer", "postmortem_on_fail", "gossip",
    )
    soak.add_argument(
        "--require-pipelined",
        type=int,
        default=None,
        help=(
            "exit non-zero unless the gateway observed at least this many concurrently "
            "in-flight requests (proof of multiplexing, via the stats peak_in_flight field)"
        ),
    )

    livefaults = command(
        "livefaults", _run_livefaults, [require_success, store],
        help="kill -9 a fraction of the peers mid-soak; gossip must detect it",
    )
    _spec_flags(livefaults, livefaults_experiment.LiveFaultsSpec, *_DRILL_FLAGS, "fraction")
    livefaults.add_argument(
        "--require-convergence",
        action="store_true",
        help="exit non-zero unless every surviving membership view converged on the deaths",
    )

    trace = command(
        "trace", _run_trace, help="run one traced range query and print its span tree"
    )
    _spec_flags(
        trace, tracecmd.TraceSpec,
        "peers", "objects", "seed", "deadline", "low", "high", "connect", "origin",
        "trace_out", "trace_jsonl",
    )

    replay = command(
        "replay", _run_replay,
        help="re-execute flight-recorder dumps in the simulator and diff against the recording",
    )
    replay.add_argument(
        "dumps",
        nargs="+",
        metavar="DUMP",
        help=(
            "flight-recorder .dump files to merge and re-execute "
            "(exits non-zero at the first divergence from the recording)"
        ),
    )
    replay.add_argument(
        "--timeline",
        action="store_true",
        help=(
            "render a terminal timeline of the recorded event "
            "tail, centred on the divergence when one is found"
        ),
    )
    return parser


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


def parse_rates(text: Optional[str]):
    """Parse ``--rates`` (``\"0.5,1,2\"``) into a tuple of floats, or ``None``."""
    rates = _parse_number_list(text, "--rates", float)
    if rates is not None and any(rate <= 0 for rate in rates):
        raise SystemExit(f"--rates needs one or more positive numbers, got {text!r}")
    return rates


def _parse_names(text: str):
    """Split a comma-separated list of scheme names."""
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _validated(factory, *args, **kwargs):
    """Build a spec; a value its ``__post_init__`` rejects is a clean exit."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc))


def make_spec(spec: Any, args: argparse.Namespace):
    """Build a live command's spec from its flags.

    ``spec`` is a spec class or a preset instance of one.  Every flag of
    ``serve``/``soak``/``livefaults``/``trace`` sets the spec field of its
    ``dest``, so the parsed values map over by name; fields without a flag
    keep the class's default or the preset's value.
    """
    values = {f.name: getattr(args, f.name) for f in fields(spec) if f.name in args}
    return _validated(spec if isinstance(spec, type) else partial(replace, spec), **values)


def make_config(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve the experiment configuration from the CLI arguments."""
    if args.profile == "quick":
        config = ExperimentConfig.quick()
    elif args.profile == "paper":
        config = ExperimentConfig.paper()
    else:
        config = ExperimentConfig()
    # A command offers only the overrides it reads, so read only those present.
    overrides = {
        field: getattr(args, flag)
        for flag, (field, _) in _OVERRIDES.items()
        if getattr(args, flag, None) is not None
    }
    return _validated(config.with_overrides, **overrides)


@contextmanager
def _replacing(store_path: str) -> Iterator[ResultStore]:
    """A store streaming into ``<path>.tmp``, renamed over ``store_path``
    only when the block succeeds.

    So re-running the same command never duplicates records, and a crashed
    or interrupted run leaves any previous result file untouched.
    """
    scratch = ResultStore(store_path + ".tmp")
    scratch.clear()
    yield scratch
    os.replace(scratch.path, store_path)


def _replace_store(store_path: str, records: List[Dict[str, Any]]) -> str:
    """Replace ``store_path`` with ``records``; returns a summary line."""
    with _replacing(store_path) as store:
        store.append_many(records)
    return f"streamed {len(records)} records into {store_path}"


def _write_csvs(csv_dir: Optional[str], csvs: Dict[str, str]) -> None:
    if csv_dir is None:
        return
    os.makedirs(csv_dir, exist_ok=True)
    for name, text in csvs.items():
        path = os.path.join(csv_dir, f"{name}.csv")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print(f"wrote {path}")


def _logged(handler: Handler) -> Handler:
    """Apply the command's ``--log-level/--log-json`` before it runs (serve
    leaves that to ``serve_async``)."""

    def run(args: argparse.Namespace) -> str:
        configure_logging(args.log_level, args.log_json)
        return handler(args)

    return run


def _profiled(handler: Handler) -> Handler:
    """Run the command under cProfile when its ``--cprofile PATH`` is set."""

    def run(args: argparse.Namespace) -> str:
        if args.cprofile is None:
            return handler(args)
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        try:
            return profiler.runcall(handler, args)
        finally:
            # Dump even when the run fails a --require-* gate: a failing
            # run's profile is exactly the one worth reading.
            profiler.dump_stats(args.cprofile)
            stats = pstats.Stats(profiler)
            stats.sort_stats("cumulative").print_stats(20)
            print(f"wrote cProfile stats to {args.cprofile}")

    return run


def _run_paper(experiment, args: argparse.Namespace) -> str:
    """A paper command: one experiment module's ``run(config)``, formatted."""
    return experiment.run(make_config(args)).format()


def _run_figures(experiment, args: argparse.Namespace, **knobs) -> str:
    """A paper command that also writes its series into ``--csv-dir``."""
    result = experiment.run(make_config(args), **knobs)
    _write_csvs(args.csv_dir, result.to_csv())
    return result.format()


def _run_load(args: argparse.Namespace) -> str:
    return _run_figures(
        load_experiment, args, rates=parse_rates(args.rates), churn=args.churn
    )


def _run_grid(runner, spec, workers: int = 1, store_path: Optional[str] = None) -> str:
    """Run a sweep or faults grid, streaming its records into ``store_path``."""
    if store_path is None:
        return runner(spec, workers=workers, store=None).format()
    with _replacing(store_path) as store:
        outcome = runner(spec, workers=workers, store=store)
    return f"{outcome.format()}\n\nstreamed {outcome.jobs} records into {store_path}"


def _run_sweep(args: argparse.Namespace) -> str:
    spec = _validated(
        orchestrator.SweepSpec.from_config,
        make_config(args),
        schemes=_parse_names(args.schemes),
        network_sizes=_parse_number_list(args.network_sizes, "--network-sizes", int),
        range_sizes=_parse_number_list(args.range_sizes, "--range-sizes", float),
        replicas=args.replicas,
    )
    return _run_grid(orchestrator.run_sweep, spec, args.workers, args.store)


def _run_faults(args: argparse.Namespace) -> str:
    spec = _validated(
        faults_experiment.FaultSweepSpec.from_config,
        make_config(args),
        schemes=_parse_names(args.scheme),
        fractions=_parse_number_list(args.failed_fraction, "--failed-fraction", float),
        replicas=args.replicas,
        timeout=args.timeout,
        retries=args.retries,
        reroute=not args.no_reroute,
        deadline=args.deadline,
    )
    return _run_grid(faults_experiment.run_sweep, spec, args.workers, args.store)


def _run_all(args: argparse.Namespace) -> str:
    """Every simulated command on one configuration (faults with its defaults)."""
    return "\n\n".join(
        [
            _run_paper(fissione_experiment, args),
            _run_paper(table1_experiment, args),
            _run_figures(figures_rangesize, args),
            _run_figures(figures_netsize, args),
            _run_paper(analytics_experiment, args),
            _run_paper(mira_experiment, args),
            _run_paper(ablation_experiment, args),
            _run_load(args),
            _run_grid(
                faults_experiment.run_sweep,
                faults_experiment.FaultSweepSpec.from_config(make_config(args)),
            ),
        ]
    )


def _run_serve(args: argparse.Namespace) -> int:
    """Blocking: boots the live cluster and runs until SIGINT/SIGTERM."""
    settings = make_spec(ServeSettings, args)
    try:
        return serve_runtime(settings)
    except OSError as exc:  # a host that does not resolve, a port in use
        raise SystemExit(f"serve failed: {exc}") from exc


def _run_live(
    args: argparse.Namespace,
    preset: Any,
    experiment: str,
    success: Callable[[livefaults_experiment.LiveFaultsResult], float],
) -> Tuple[livefaults_experiment.LiveFaultsResult, str]:
    """Run a live preset with the command's flags; ``--require-success``
    holds ``success(result)`` to its bound.  Returns ``(result, output)``."""
    result = livefaults_experiment.run(make_spec(preset, args))
    parts = [result.format()]
    if args.store is not None:
        parts.append(_replace_store(args.store, [result.record(experiment)]))
    output = "\n\n".join(parts)
    if args.require_success is not None and success(result) < args.require_success:
        raise SystemExit(
            output
            + f"\n\n{experiment} failed: success ratio {success(result):.4f}"
            f" below the required {args.require_success:g}"
        )
    return result, output


def _run_soak(args: argparse.Namespace) -> str:
    if args.require_pipelined is not None and args.require_pipelined < 1:
        raise SystemExit(
            f"--require-pipelined must be at least 1, got {args.require_pipelined}"
        )
    # The status ratio: a dead victim's lost subtree fails the run, which the
    # drill's score (the victims forgiven) would not.
    result, output = _run_live(
        args, livefaults_experiment.SOAK, "soak", lambda result: result.report.success_ratio
    )
    if args.require_pipelined is not None:
        observed = int(result.stats.get("peak_in_flight", 0))
        if observed < args.require_pipelined:
            raise SystemExit(
                output
                + f"\n\nsoak failed: gateway peak in-flight {observed}"
                f" below the required pipelining depth {args.require_pipelined}"
            )
    return output


def _run_livefaults(args: argparse.Namespace) -> str:
    # The drill's score: partial statuses after the kills are expected, a
    # query counts when it reached everything still alive.
    result, output = _run_live(
        args, livefaults_experiment.LiveFaultsSpec, "livefaults",
        lambda result: result.success_ratio,
    )
    if args.require_convergence and not result.converged:
        raise SystemExit(
            output
            + "\n\nlivefaults failed: membership views did not converge on "
            f"the deaths within {result.spec.convergence_timeout:g}s"
        )
    return output


def _run_trace(args: argparse.Namespace) -> str:
    try:
        return tracecmd.run(make_spec(tracecmd.TraceSpec, args)).format()
    except (ApiError, OSError) as exc:  # an unknown --origin, an unreachable --connect
        raise SystemExit(f"trace failed: {exc}") from exc


def _run_replay(args: argparse.Namespace) -> str:
    from repro.obs.recorder import DumpError
    from repro.obs.replay import ReplayError

    spec = postmortem_experiment.PostmortemSpec(
        dumps=tuple(args.dumps), timeline=args.timeline
    )
    try:
        result = postmortem_experiment.run(spec)
    except (DumpError, ReplayError) as exc:
        raise SystemExit(f"replay failed: {exc}") from exc
    output = result.format()
    if not result.ok:
        # The divergence is the finding: print the full report and make
        # the exit code say "the recording does not replay cleanly".
        raise SystemExit(output)
    return output


def main(argv=None) -> int:
    """CLI entry point: parse, run the command's handler, print its output."""
    args = build_parser().parse_args(argv)
    # An output directory, or an output file's directory, that cannot be
    # made is refused before the run does any work, not after all of it.
    for dest in ("csv_dir", "record_dir", "store", "trace_out", "trace_jsonl"):
        path = getattr(args, dest, None)
        if path is not None:
            if dest not in ("csv_dir", "record_dir"):
                path = os.path.dirname(os.path.abspath(path))
            try:
                os.makedirs(path, exist_ok=True)
            except OSError as exc:
                flag = "--" + dest.replace("_", "-")
                raise SystemExit(f"{flag}: cannot create {path!r}: {exc}") from exc
    if args.command == "serve":
        # serve prints its own contract lines while it runs and returns
        # the process exit code once it has drained.
        return args.handler(args)
    print(args.handler(args))
    return 0


if __name__ == "__main__":  # pragma: no cover - direct execution convenience
    sys.exit(main())
