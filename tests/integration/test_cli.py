"""Integration tests for the armada-repro command-line interface."""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shlex
import socket
from pathlib import Path

import pytest

from repro.cli import build_parser, main, make_config, make_spec
from repro.experiments.faults import FaultSweepSpec
from repro.experiments.livefaults import SOAK, LiveFaultsSpec
from repro.experiments.tracecmd import TraceSpec
from repro.runtime.server import ServeSettings

SIZING = {"--profile", "--peers", "--queries", "--objects", "--seed"}
#: the commands that sweep the profile's network sizes read no --peers
SWEPT_SIZES = SIZING - {"--peers"}
GRID = SIZING | {"--workers", "--replicas", "--store"}
LOGGING = {"--log-level", "--log-json"}
CLIENTS = {"--concurrency", "--mira-fraction", "--pool", "--require-success"}
LIVE_SIZING = {"--peers", "--nodes", "--queries", "--objects", "--seed"}

#: every flag each command's subparser offers — exactly the ones it reads
COMMAND_FLAGS = {
    "table1": SIZING,
    "analytics": SWEPT_SIZES,
    "fissione": {"--profile", "--seed"},
    "mira": SIZING,
    "ablation": SIZING,
    "figures-rangesize": SIZING | {"--csv-dir"},
    "figures-netsize": SWEPT_SIZES | {"--csv-dir"},
    "load": SIZING | {"--csv-dir", "--rates", "--churn", "--cprofile"},
    "all": SIZING | {"--csv-dir", "--rates", "--churn"},
    "sweep": GRID | {"--schemes", "--network-sizes", "--range-sizes"},
    "faults": GRID
    | {"--scheme", "--failed-fraction", "--timeout", "--retries", "--no-reroute", "--deadline"},
    "serve": LOGGING
    | {"--peers", "--nodes", "--seed", "--host", "--port", "--deadline",
       "--metrics-port", "--record-dir"},
    "soak": LIVE_SIZING | CLIENTS | LOGGING
    | {"--deadline", "--metrics-port", "--record-dir", "--trace-out", "--store", "--cprofile",
       "--storage", "--data-dir", "--replicas", "--kill-restart", "--kill-peer",
       "--postmortem-on-fail", "--require-pipelined", "--gossip"},
    "livefaults": LIVE_SIZING | CLIENTS
    | {"--deadline", "--store", "--fraction", "--require-convergence"},
    "trace": {"--peers", "--objects", "--seed", "--deadline", "--low", "--high", "--connect",
              "--origin", "--trace-out", "--trace-jsonl"},
    "replay": {"--timeline"},
}


def ci_invocations():
    """The arguments of every ``repro ...`` / ``python -m repro ...`` call in
    the CI workflow, its ``\\`` continuation lines joined.  Comments and the
    ``--help`` sanity calls (which print and exit instead of parsing) are
    skipped."""
    workflow = Path(__file__).parents[2] / ".github" / "workflows" / "ci.yml"
    lines = [line.strip() for line in workflow.read_text().splitlines()]
    joined = " ".join(
        line[:-1] if line.endswith("\\") else line + "\n"
        for line in lines
        if not line.startswith("#")
    )
    calls = []
    for line in joined.splitlines():
        match = re.search(r"(?:^|\s)(?:python -m )?repro\s+(.*)", line)
        if match is None:
            continue
        # cut the shell around the call: a pipe, ``&``, ``; then`` or ``)``
        argv = re.split(r"\s*(?:\||&|;|\))", match.group(1))[0].strip()
        if "--help" not in argv:
            calls.append(" ".join(argv.split()))
    return calls


#: every ``repro`` invocation of .github/workflows/ci.yml
CI_INVOCATIONS = ci_invocations()


def subparsers():
    """``{command: its subparser}`` of the CLI parser."""
    (action,) = [
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return action.choices


class TestArgumentHandling:
    def test_parser_accepts_all_commands(self):
        parser = build_parser()
        for command in ("table1", "figures-rangesize", "figures-netsize", "analytics",
                        "fissione", "mira", "ablation", "load", "sweep", "faults",
                        "serve", "soak", "livefaults", "trace", "all"):
            assert parser.parse_args([command]).command == command

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_offers_exactly_the_flags_it_reads(self, command):
        choices = subparsers()
        assert set(choices) == set(COMMAND_FLAGS)
        offered = {
            option
            for action in choices[command]._actions
            for option in action.option_strings
        } - {"-h", "--help"}
        assert offered == COMMAND_FLAGS[command]

    def test_flag_budget(self):
        assert len(COMMAND_FLAGS["soak"]) <= 25
        assert sum(len(flags) for flags in COMMAND_FLAGS.values()) <= 150

    @pytest.mark.parametrize(
        "argv",
        [
            ["table1", "--kill-peer"],
            ["soak", "--schemes", "armada"],
            ["sweep", "--scheme", "pira"],
            ["soak", "--host", "0.0.0.0"],
            ["fissione", "x.dump"],
            ["livefaults", "--kill-after", "0.5"],
            ["serve", "--profile", "quick"],
            ["replay"],
            ["soak", "--require-success", "1.5"],
            ["livefaults", "--require-success", "1.5"],
            ["fissione", "--peers", "80"],
            ["fissione", "--queries", "5"],
            ["analytics", "--peers", "90"],
            ["figures-netsize", "--peers", "90"],
        ],
        ids=" ".join,
    )
    def test_flag_a_command_does_not_read_is_an_argparse_error(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_live_defaults_are_the_spec_defaults(self):
        parser = build_parser()
        assert parser.parse_args(["soak"]).peers == 32
        assert parser.parse_args(["livefaults"]).seed == 1
        assert parser.parse_args(["trace"]).objects == TraceSpec.objects

    def test_ci_workflow_has_every_invocation(self):
        assert len(CI_INVOCATIONS) >= 11

    @pytest.mark.parametrize("argv", CI_INVOCATIONS)
    def test_ci_invocations_parse(self, argv):
        args = build_parser().parse_args(shlex.split(argv))
        assert callable(args.handler)

    def test_rates_parsing(self):
        from repro.cli import parse_rates

        assert parse_rates(None) is None
        assert parse_rates("0.5,1,2") == (0.5, 1.0, 2.0)
        with pytest.raises(SystemExit):
            parse_rates("fast")
        with pytest.raises(SystemExit):
            parse_rates("-1,2")

    def test_churn_flag(self):
        parser = build_parser()
        assert parser.parse_args(["load", "--churn"]).churn is True
        assert parser.parse_args(["load"]).churn is False

    def test_profile_selection(self):
        parser = build_parser()
        quick = make_config(parser.parse_args(["table1", "--profile", "quick"]))
        paper = make_config(parser.parse_args(["table1", "--profile", "paper"]))
        default = make_config(parser.parse_args(["table1"]))
        assert quick.peers < default.peers
        assert paper.queries_per_point == 1000

    def test_overrides(self):
        parser = build_parser()
        config = make_config(
            parser.parse_args(
                ["table1", "--peers", "123", "--queries", "7", "--objects", "50", "--seed", "9"]
            )
        )
        assert config.peers == 123
        assert config.queries_per_point == 7
        assert config.objects == 50
        assert config.seed == 9

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["frobnicate"])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench"],
            ["soak", "--bench-dir", "."],
            ["livefaults", "--bench-dir", "."],
            ["soak", "--check"],
            ["soak", "--skip-run"],
            ["soak", "--baseline-dir", "."],
        ],
        ids=" ".join,
    )
    def test_benchmark_gate_command_and_flags_are_gone(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_serve_soak_defaults(self):
        parser = build_parser()
        serve = make_spec(ServeSettings, parser.parse_args(["serve"]))
        assert serve.peers == 32
        assert serve.port == 7411
        assert serve.deadline == 5.0
        soak = make_spec(SOAK, parser.parse_args(["soak"]))
        assert soak.peers == 32
        assert soak.queries == 1000
        assert soak.nodes == 8
        assert soak.concurrency == 16

    def test_serve_soak_overrides(self):
        parser = build_parser()
        args = parser.parse_args(
            ["soak", "--peers", "16", "--queries", "200", "--nodes", "4",
             "--concurrency", "8", "--mira-fraction", "0.5", "--deadline", "2.5"]
        )
        spec = make_spec(SOAK, args)
        assert (spec.peers, spec.queries, spec.nodes) == (16, 200, 4)
        assert (spec.concurrency, spec.mira_fraction, spec.deadline) == (8, 0.5, 2.5)

    def test_observability_flags_reach_the_specs(self):
        parser = build_parser()
        serve = make_spec(
            ServeSettings,
            parser.parse_args(
                ["serve", "--metrics-port", "9109", "--log-level", "debug", "--log-json"]
            ),
        )
        assert serve.metrics_port == 9109
        assert serve.log_level == "debug"
        assert serve.log_json is True
        assert make_spec(ServeSettings, parser.parse_args(["serve"])).metrics_port is None
        soak = make_spec(
            SOAK,
            parser.parse_args(
                ["soak", "--metrics-port", "0", "--trace-out", "trace.json"]
            ),
        )
        assert soak.metrics_port == 0
        assert soak.trace_out == "trace.json"

    @pytest.mark.parametrize(
        "command, preset",
        [("serve", ServeSettings()), ("soak", SOAK), ("livefaults", LiveFaultsSpec()),
         ("trace", TraceSpec())],
        ids=["serve", "soak", "livefaults", "trace"],
    )
    def test_flag_defaults_rebuild_the_preset(self, command, preset):
        assert make_spec(preset, build_parser().parse_args([command])) == preset

    def test_faults_flag_defaults_are_the_spec_defaults(self):
        args = build_parser().parse_args(["faults"])
        assert (args.timeout, args.retries, args.deadline, not args.no_reroute) == (
            FaultSweepSpec.timeout, FaultSweepSpec.retries, FaultSweepSpec.deadline,
            FaultSweepSpec.reroute,
        )

    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_every_option_has_help(self, command):
        sub = subparsers()[command]
        for action in sub._actions:
            assert action.help and action.help.strip(), (command, action.option_strings)
        sub.format_help()  # a stray % in a field's #: comment would raise here

    def test_trace_defaults_and_overrides(self):
        parser = build_parser()
        spec = make_spec(TraceSpec, parser.parse_args(["trace"]))
        assert spec.connect is None
        assert (spec.low, spec.high) == (400.0, 420.0)
        spec = make_spec(
            TraceSpec,
            parser.parse_args(
                ["trace", "--low", "10", "--high", "50", "--connect",
                 "127.0.0.1:7411", "--origin", "012", "--trace-jsonl", "t.jsonl"]
            ),
        )
        assert spec.address == ("127.0.0.1", 7411)
        assert spec.origin == "012"
        assert spec.trace_jsonl == "t.jsonl"


#: One cheap run per command and output-file flag: the flag's value is
#: appended to the argv.
FILE_FLAGS = {
    "sweep-store": (["sweep", "--profile", "quick", "--store"], "--store"),
    "faults-store": (["faults", "--profile", "quick", "--store"], "--store"),
    "soak-store": (["soak", "--peers", "8", "--queries", "10", "--objects", "10", "--store"],
                   "--store"),
    "soak-trace-out": (
        ["soak", "--peers", "8", "--queries", "10", "--objects", "10", "--trace-out"],
        "--trace-out",
    ),
    "livefaults-store": (
        ["livefaults", "--peers", "8", "--queries", "10", "--objects", "10", "--store"],
        "--store",
    ),
    "trace-trace-out": (["trace", "--peers", "8", "--trace-out"], "--trace-out"),
    "trace-trace-jsonl": (["trace", "--peers", "8", "--trace-jsonl"], "--trace-jsonl"),
}


class TestParseErrors:
    """Every subcommand's bad arguments must exit non-zero with a usable
    message (a SystemExit carrying text), never a traceback."""

    def run_main_expecting_exit(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        code = excinfo.value.code
        # argparse exits with 2; our validators exit with a message string
        assert code not in (0, None)
        if isinstance(code, str):
            assert code.strip(), "error message must not be empty"
        return code

    # -- load ---------------------------------------------------------------

    def test_load_bad_rates(self):
        message = self.run_main_expecting_exit(["load", "--rates", "fast"])
        assert "rates" in str(message)

    def test_load_negative_rates(self):
        message = self.run_main_expecting_exit(["load", "--rates=-1,2"])
        assert "positive" in str(message)

    # -- sweep --------------------------------------------------------------

    def test_sweep_unknown_scheme(self):
        message = self.run_main_expecting_exit(
            ["sweep", "--profile", "quick", "--schemes", "frobnicate"]
        )
        assert "frobnicate" in str(message)

    def test_sweep_bad_network_sizes(self):
        message = self.run_main_expecting_exit(
            ["sweep", "--profile", "quick", "--network-sizes", "abc"]
        )
        assert "--network-sizes" in str(message)

    def test_sweep_rejects_faults_flag(self, capsys):
        code = self.run_main_expecting_exit(
            ["sweep", "--profile", "quick", "--scheme", "pira"]
        )
        assert code == 2
        assert "unrecognized arguments: --scheme pira" in capsys.readouterr().err

    # -- faults -------------------------------------------------------------

    def test_faults_unknown_variant(self):
        message = self.run_main_expecting_exit(
            ["faults", "--profile", "quick", "--scheme", "bogus"]
        )
        assert "bogus" in str(message)

    def test_faults_bad_fraction(self):
        message = self.run_main_expecting_exit(
            ["faults", "--profile", "quick", "--failed-fraction", "2.0"]
        )
        assert "0.9" in str(message)

    def test_faults_rejects_sweep_flag(self, capsys):
        code = self.run_main_expecting_exit(
            ["faults", "--profile", "quick", "--schemes", "pira"]
        )
        assert code == 2
        assert "unrecognized arguments: --schemes pira" in capsys.readouterr().err

    # -- serve --------------------------------------------------------------

    def test_serve_too_few_peers(self):
        message = self.run_main_expecting_exit(["serve", "--peers", "2"])
        assert "at least 3 peers" in str(message)

    def test_serve_bad_port(self):
        message = self.run_main_expecting_exit(["serve", "--port", "70000"])
        assert "port" in str(message)

    def test_serve_bad_nodes(self):
        message = self.run_main_expecting_exit(["serve", "--nodes", "0"])
        assert "nodes" in str(message)

    def test_serve_bad_deadline(self):
        message = self.run_main_expecting_exit(["serve", "--deadline", "0"])
        assert "deadline" in str(message)

    def test_serve_host_that_does_not_resolve(self, monkeypatch):
        def unresolvable(host, *args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        # The lookup fails here, before any name server is asked.
        monkeypatch.setattr(socket, "getaddrinfo", unresolvable)
        message = self.run_main_expecting_exit(
            ["serve", "--host", "256.0.0.1", "--port", "0", "--peers", "3"]
        )
        assert str(message).startswith("serve failed: ")
        assert "Name or service not known" in str(message)

    def test_serve_host_it_cannot_bind(self):
        # TEST-NET-1 (RFC 5737): a literal address no local interface has.
        message = self.run_main_expecting_exit(
            ["serve", "--host", "192.0.2.1", "--port", "0", "--peers", "3"]
        )
        assert str(message).startswith("serve failed: ")

    # -- soak ---------------------------------------------------------------

    def test_soak_zero_queries(self):
        message = self.run_main_expecting_exit(["soak", "--queries", "0"])
        assert "quer" in str(message)

    def test_soak_bad_concurrency(self):
        message = self.run_main_expecting_exit(["soak", "--concurrency", "0"])
        assert "concurrency" in str(message)

    def test_soak_bad_mira_fraction(self):
        message = self.run_main_expecting_exit(["soak", "--mira-fraction", "1.5"])
        assert "mira" in str(message)

    def test_soak_bad_require_success(self, capsys):
        code = self.run_main_expecting_exit(["soak", "--require-success", "3"])
        assert code == 2
        assert "--require-success: must be within [0, 1]" in capsys.readouterr().err

    def test_soak_bad_require_pipelined(self):
        message = self.run_main_expecting_exit(["soak", "--require-pipelined", "0"])
        assert "--require-pipelined" in str(message)

    def test_soak_unknown_storage_backend(self, capsys):
        code = self.run_main_expecting_exit(["soak", "--storage", "sqlite"])
        assert code == 2
        assert "invalid choice: 'sqlite'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["soak", "--peers", "8", "--queries", "10", "--objects", "10", "--record-dir"],
             "--record-dir"),
            (["load", "--profile", "quick", "--csv-dir"], "--csv-dir"),
            # a file flag's directory is made, or refused, the same way
            *FILE_FLAGS.values(),
        ],
        ids=["soak-record-dir", "load-csv-dir", *FILE_FLAGS],
    )
    def test_output_dir_that_cannot_be_made_is_refused_before_the_run(
        self, argv, flag, tmp_path, capsys
    ):
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        message = self.run_main_expecting_exit([*argv, str(blocker / "x")])
        # a directory flag names the directory, a file flag the file's directory
        refused = blocker if flag in ("--store", "--trace-out", "--trace-jsonl") else blocker / "x"
        assert str(message).startswith(f"{flag}: cannot create {str(refused)!r}: ")
        assert capsys.readouterr().out == ""  # nothing ran

    def test_non_numeric_flag_exits_cleanly(self):
        # argparse-level type errors (exit code 2, message on stderr)
        self.run_main_expecting_exit(["soak", "--queries", "many"])

    # -- observability flags ------------------------------------------------

    def test_serve_bad_metrics_port(self):
        message = self.run_main_expecting_exit(["serve", "--metrics-port", "70000"])
        assert "metrics" in str(message)

    def test_soak_bad_metrics_port(self):
        message = self.run_main_expecting_exit(["soak", "--metrics-port", "-1"])
        assert "metrics" in str(message)

    def test_trace_inverted_range(self):
        message = self.run_main_expecting_exit(["trace", "--low", "5", "--high", "1"])
        assert "range" in str(message)

    def test_trace_bad_connect(self):
        message = self.run_main_expecting_exit(["trace", "--connect", "nowhere"])
        assert "HOST:PORT" in str(message)

    def test_trace_unknown_origin(self):
        message = self.run_main_expecting_exit(["trace", "--peers", "16", "--origin", "9999"])
        assert "9999" in str(message)

    def test_trace_unreachable_gateway(self):
        with socket.socket() as probe:  # a port that was just free: nothing listens
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        message = self.run_main_expecting_exit(["trace", "--connect", f"127.0.0.1:{port}"])
        assert "trace failed" in str(message)

    # -- simulated sizes ----------------------------------------------------

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["table1", "--peers", "0"], "3 peers"),
            (["load", "--peers", "2"], "3 peers"),
            (["table1", "--queries", "-3"], "query"),
            (["analytics", "--queries", "0"], "query"),
            (["mira", "--objects", "-1"], "objects"),
            (["sweep", "--network-sizes", "2"], "3 peers"),
            (["sweep", "--range-sizes", "-5"], "range sizes"),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else None,
    )
    def test_bad_simulated_size(self, argv, expected):
        message = self.run_main_expecting_exit(argv + ["--profile", "quick"])
        assert expected in str(message)


class TestExecution:
    TINY = ["--profile", "quick", "--peers", "120", "--queries", "8", "--objects", "200"]

    def test_run_command_fissione(self, capsys):
        assert main(["fissione", "--profile", "quick"]) == 0
        assert "FISSIONE" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, flag", list(FILE_FLAGS.values()), ids=list(FILE_FLAGS))
    def test_an_output_files_missing_directory_is_made(self, argv, flag, tmp_path):
        out = tmp_path / "not" / "yet" / "out"
        assert main([*argv, str(out)]) == 0
        assert out.stat().st_size > 0

    def test_an_output_file_without_a_directory_lands_in_the_working_directory(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "--peers", "8", "--trace-out", "t.json"]) == 0
        assert json.loads((tmp_path / "t.json").read_text())["traceEvents"]

    def test_trace_command_prints_span_tree(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        exit_code = main(
            [
                "trace",
                "--peers", "32",
                "--objects", "100",
                "--low", "100",
                "--high", "160",
                "--trace-out", str(out_path),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr().out
        assert "Traced range query" in captured
        assert "pira" in captured
        assert "hop " in captured
        payload = json.loads(out_path.read_text())
        assert payload["traceEvents"]

    def test_trace_sim_leg_is_not_cut_by_the_wall_clock_deadline(self, capsys):
        """``--deadline`` (default 5.0) is seconds; the simulator counts
        hops, where a wide query needs more than five."""
        assert main(["trace", "--peers", "256", "--low", "100", "--high", "900"]) == 0
        status = re.search(
            r"status  : (\w+), (\d+) matches over (\d+) hops", capsys.readouterr().out
        )
        assert status is not None and status.group(1) == "ok"
        assert int(status.group(2)) > 0
        assert 5 < int(status.group(3)) <= 2 * math.log2(256) + 1

    def test_run_command_figures_with_csv(self, capsys, tmp_path):
        assert main(["figures-rangesize"] + self.TINY + ["--csv-dir", str(tmp_path)]) == 0
        assert "Figure 5" in capsys.readouterr().out
        assert os.path.exists(tmp_path / "figure5.csv")
        assert os.path.exists(tmp_path / "figure6a.csv")

    def test_figures_netsize_writes_its_csvs(self, capsys, tmp_path):
        argv = ["figures-netsize", "--profile", "quick", "--queries", "8", "--objects", "200"]
        assert main(argv + ["--csv-dir", str(tmp_path)]) == 0
        assert "Figure 7" in capsys.readouterr().out
        headers = {
            name: (tmp_path / f"{name}.csv").read_text().splitlines()[0]
            for name in ("figure7", "figure8a", "figure8b")
        }
        assert headers == {
            "figure7": "network_size,PIRA,DCF-CAN,logN",
            "figure8a": "network_size,PIRA,DCF-CAN,Destpeers",
            "figure8b": "network_size,MesgRatio,IncreRatio",
        }

    def test_main_prints_output(self, capsys):
        exit_code = main(["fissione", "--profile", "quick", "--seed", "5"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "FISSIONE" in captured.out

    def test_run_command_load(self, capsys, tmp_path):
        assert main(["load"] + self.TINY + ["--rates", "2,8", "--csv-dir", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Concurrent load sweep" in output
        assert "Throughput vs offered load" in output
        assert os.path.exists(tmp_path / "load.csv")

    def test_run_command_load_with_churn(self, capsys):
        assert main(["load"] + self.TINY + ["--rates", "4", "--churn"]) == 0
        assert "with churn" in capsys.readouterr().out

    def test_soak_store_holds_one_record_of_the_run(self, capsys, tmp_path):
        store = tmp_path / "soak.jsonl"
        exit_code = main(
            ["soak", "--peers", "8", "--nodes", "4", "--queries", "40",
             "--objects", "40", "--store", str(store), "--require-success", "1.0"]
        )
        assert exit_code == 0
        assert f"streamed 1 records into {store}" in capsys.readouterr().out
        (record,) = [json.loads(line) for line in store.read_text().splitlines()]
        assert record["experiment"] == "soak"
        assert record["queries"] == 40
        assert record["success_ratio"] == record["status_success_ratio"] == 1.0
        assert record["throughput"] > 0
        assert record["peak_in_flight"] >= 1
        assert record["frames"] > 0

    def test_livefaults_output_does_not_depend_on_cwd(self, capsys, tmp_path, monkeypatch):
        # The command used to print a "sim baseline" line whenever the CWD
        # happened to hold the deleted gate's faults baseline; plant one.
        planted = tmp_path / "benchmarks"
        planted.mkdir()
        (planted / ("BENCH" + "_faults.json")).write_text(
            json.dumps({"metrics": {"success_ratio_resilient": 0.85, "worst_failed_fraction": 0.2}})
        )
        monkeypatch.chdir(tmp_path)
        exit_code = main(
            ["livefaults", "--peers", "8", "--nodes", "4", "--queries", "40",
             "--objects", "40", "--fraction", "0.25", "--concurrency", "8"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "success ratio" in output
        assert "sim baseline" not in output
