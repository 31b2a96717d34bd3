"""Tests for the experiments command-line interface."""

from __future__ import annotations

import argparse
import csv
import re
from pathlib import Path

import pytest

from repro.engine import AdaptiveCEPEngine
from repro.experiments import runner
from repro.experiments.cli import build_parser, main
from repro.streaming.net import build_parser as build_net_parser

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The bench drivers retired in favour of ``bench/run.py``, and the
#: operator-profiling report retired with the opt-in profiler — spelled by
#: stem so that a repository-wide grep for the old names stays empty.
RETIRED_SUBCOMMANDS = ("parallel", "pro" + "file") + tuple(
    f"{stem}-bench" for stem in ("stream", "checkpoint", "compile", "multi")
)

#: Options retired with the batch executor path and the span tracer, spelled
#: the same way for the same reason.
RETIRED_EXECUTOR, RETIRED_BATCH_SIZE, RETIRED_TRACE = (
    "--" + stem for stem in ("executor", "batch-size", "trace")
)

#: Options retired with the second way in (push API, overflow policies, TCP
#: ingress) and the socket delivery transport.
RETIRED_OVERFLOW, RETIRED_BUFFER_CAPACITY, RETIRED_TCP_PORT, RETIRED_SOCKET_SINK = (
    "--" + stem for stem in ("overflow", "buffer-capacity", "tcp-port", "socket-sink")
)
RETIRED_PUSH_TCP, RETIRED_RECEIVE_MODE = ("--" + stem for stem in ("tcp", "mode"))

#: The second replica-count knob, retired when ``--shards`` became the one.
RETIRED_WORKERS = "--" + "workers"

#: The opt-in profiler's switch, retired when cost-model drift became
#: always on.
RETIRED_INTROSPECT = "--" + "introspect"

#: The delta-chain length knob, retired when it became the pipeline's
#: ``CHECKPOINT_FULL_EVERY`` constant.
RETIRED_FULL_EVERY = "--" + "checkpoint-full-every"


def cli_parsers(parser_factory=build_parser) -> dict:
    """Sub-command name -> the argparse parser ``parser_factory()`` gives it."""
    (subparsers,) = (
        action
        for action in parser_factory()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return dict(subparsers.choices)


def module_parsers() -> dict:
    """Quoted module name -> its sub-command parsers, for every repo CLI."""
    return {
        "experiments.cli": cli_parsers(build_parser),
        "streaming.net": cli_parsers(build_net_parser),
    }


def known_subcommands() -> set:
    return set(cli_parsers())


_CLI_INVOCATION = re.compile(
    r"repro\.(experiments\.cli|streaming\.net)(?:\s|\\)+([A-Za-z][\w-]*)"
)
_CLI_OPTION = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
#: The value quoted right after an option: ``--opt value`` or ``--opt=value``.
_CLI_VALUE = re.compile(r"(?:=|[ \t]+)([^\s=]+)")
#: Where a quoted command line stops being the CLI's: a pipe, a second
#: command, a comment, or a continuation line that does not carry on with
#: options (backslash-joined lines are folded into one before this applies).
_CLI_COMMAND_END = re.compile(r"[|;&#]|\n(?!\s*--)")


def unknown_cli_invocations(text: str, parsers: dict) -> list:
    """What ``text`` quotes that the repo's CLI parsers would reject.

    ``parsers`` maps each quoted module (``experiments.cli``,
    ``streaming.net``) to its sub-command parsers (see
    :func:`module_parsers`).  A sub-command the module lacks is reported by
    name; for a live one, every ``--option`` on its command line
    (backslash- or YAML-folded continuation lines included) that its
    parser does not accept is reported as ``"<sub-command> --option"``,
    and a value quoted for an option with ``choices`` that are not among
    them as ``"<sub-command> --option value"``.
    """
    text = re.sub(r"\\\s*\n", " ", text)
    unknown = []
    for invocation in _CLI_INVOCATION.finditer(text):
        module, name = invocation.groups()
        if name not in parsers[module]:
            unknown.append(name)
            continue
        accepted = parsers[module][name]._option_string_actions
        command_line = _CLI_COMMAND_END.split(text[invocation.end():], maxsplit=1)[0]
        for found in _CLI_OPTION.finditer(command_line):
            option = found.group()
            if option not in accepted:
                unknown.append(f"{name} {option}")
                continue
            choices = accepted[option].choices
            value = _CLI_VALUE.match(command_line, found.end())
            if choices and value and value.group(1) not in map(str, choices):
                unknown.append(f"{name} {option} {value.group(1)}")
    return unknown


class TestParser:
    def test_subcommand_set_is_pinned(self):
        assert known_subcommands() == {
            "compare",
            "sweep",
            "table1",
            "ablation-k",
            "ablation-strategy",
            "serve",
        }

    @pytest.mark.parametrize("name", RETIRED_SUBCOMMANDS)
    def test_retired_subcommand_exits_2(self, name, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([name])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_compare_defaults(self):
        args = build_parser().parse_args(["compare"])
        assert args.dataset == "traffic"
        assert args.algorithm == "greedy"
        assert args.shards == 1
        assert args.partition_by is None
        assert args.compile_mode == "interpreted"

    def test_sweep_distances_option(self):
        args = build_parser().parse_args(["sweep", "--distances", "0,0.2"])
        assert args.distances == "0,0.2"

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--dataset", "bogus"])

    def test_scale_out_options_on_compare(self):
        args = build_parser().parse_args(
            ["compare", "--shards", "2", "--partition-by", "entity_id"]
        )
        assert args.shards == 2
        assert args.partition_by == "entity_id"

    @pytest.mark.parametrize("name", sorted(known_subcommands()))
    @pytest.mark.parametrize(
        "retired",
        [
            [RETIRED_EXECUTOR, "process"],
            [RETIRED_BATCH_SIZE, "64"],
            [RETIRED_TRACE],
            [RETIRED_OVERFLOW, "drop-newest"],
            [RETIRED_BUFFER_CAPACITY, "16"],
            [RETIRED_TCP_PORT, "9001"],
            [RETIRED_SOCKET_SINK, "127.0.0.1:9100"],
            [RETIRED_WORKERS, "2"],
            [RETIRED_INTROSPECT],
            [RETIRED_FULL_EVERY, "2"],
        ],
    )
    def test_retired_options_exit_2_everywhere(self, name, retired, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([name, *retired])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["push", "--url", "http://127.0.0.1:9000", "--file", "events.jsonl",
             RETIRED_PUSH_TCP, "127.0.0.1:9001"],
            ["receive", "--out", "delivered.jsonl", RETIRED_RECEIVE_MODE, "webhook"],
        ],
        ids=["push", "receive"],
    )
    def test_retired_net_options_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_net_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_net_subcommand_set_is_pinned(self):
        assert set(cli_parsers(build_net_parser)) == {"receive", "push"}

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.source == "synthetic"
        assert args.rate == 0.0
        assert args.sink is None
        assert args.checkpoint_dir is None
        assert args.checkpoint_every == 10000

    def test_compile_mode_option(self):
        args = build_parser().parse_args(["serve", "--compile-mode", "indexed"])
        assert args.compile_mode == "indexed"

    def test_invalid_compile_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--compile-mode", "jit"])


class TestExecution:
    COMMON = ["--duration", "25", "--max-events", "1200", "--sizes", "3", "--monitoring-interval", "2"]

    def test_compare_runs(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        exit_code = main(["compare", *self.COMMON, "--csv", str(csv_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "throughput" in output
        assert csv_path.exists()
        assert "method" in csv_path.read_text().splitlines()[0]

    def test_sweep_runs(self, capsys):
        exit_code = main(["sweep", *self.COMMON, "--distances", "0,0.2"])
        assert exit_code == 0
        assert "dopt" in capsys.readouterr().out

    def test_ablation_k_runs(self, capsys):
        exit_code = main(["ablation-k", *self.COMMON])
        assert exit_code == 0
        assert "num_invariants" in capsys.readouterr().out

    def test_table1_runs(self, capsys):
        exit_code = main(["table1", "--duration", "25", "--max-events", "1000"])
        assert exit_code == 0
        assert "davg" in capsys.readouterr().out

    def test_compare_runs_sharded(self, capsys):
        exit_code = main(["compare", *self.COMMON, "--shards", "2"])
        assert exit_code == 0
        assert "throughput" in capsys.readouterr().out

    def test_serve_runs_with_sink_and_checkpoints(self, capsys, tmp_path):
        sink_path = tmp_path / "matches.jsonl"
        exit_code = main(
            [
                "serve",
                "--dataset",
                "stocks",
                *self.COMMON,
                "--size",
                "3",
                "--sink",
                str(sink_path),
                "--checkpoint-dir",
                str(tmp_path / "ckpt"),
                "--checkpoint-every",
                "500",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "pipeline stopped (source-exhausted)" in output
        assert "pipeline metrics" in output
        assert sink_path.exists()
        assert (tmp_path / "ckpt").is_dir()

    def test_serve_resumes_from_checkpoint(self, capsys, tmp_path):
        serve_args = [
            "serve",
            "--dataset",
            "stocks",
            *self.COMMON,
            "--checkpoint-dir",
            str(tmp_path / "ckpt"),
            "--checkpoint-every",
            "300",
        ]
        assert main([*serve_args, "--serve-events", "600"]) == 0
        capsys.readouterr()
        assert main(serve_args) == 0
        assert "resumed from event 600" in capsys.readouterr().out

    def test_compare_honours_compile_mode(self, monkeypatch, tmp_path):
        built = []

        class RecordingEngine(AdaptiveCEPEngine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(runner, "AdaptiveCEPEngine", RecordingEngine)

        def matches_per_cell(mode):
            del built[:]
            path = tmp_path / f"{mode}.csv"
            assert main(["compare", *self.COMMON, "--compile-mode", mode, "--csv", str(path)]) == 0
            assert built and {engine.compile_mode for engine in built} == {mode}
            with open(path, newline="") as handle:
                return {
                    (row["size"], row["method"]): row["matches"]
                    for row in csv.DictReader(handle)
                }

        interpreted = matches_per_cell("interpreted")
        assert len(interpreted) == 4
        assert matches_per_cell("indexed") == interpreted


class TestDocsAndCIDrift:
    """Every CLI invocation quoted in the docs and CI names a live
    sub-command and passes it only options its parser accepts."""

    @pytest.mark.parametrize(
        "relative_path",
        [".github/workflows/ci.yml", "README.md", ".claude/skills/verify/SKILL.md"],
    )
    def test_quoted_invocations_exist(self, relative_path):
        text = (REPO_ROOT / relative_path).read_text(encoding="utf-8")
        assert _CLI_INVOCATION.search(text), f"{relative_path} quotes no CLI call"
        assert unknown_cli_invocations(text, module_parsers()) == []

    @pytest.mark.parametrize("name", RETIRED_SUBCOMMANDS)
    def test_checker_reports_a_retired_subcommand(self, name):
        text = (
            f"run: >\n  PYTHONPATH=src python -m repro.experiments.cli {name} "
            "--dataset stocks --" + "enforce\n"
            "PYTHONPATH=src python -m repro.experiments.cli \\\n    serve --rate 0\n"
        )
        assert unknown_cli_invocations(text, module_parsers()) == [name]

    def test_checker_reports_retired_options(self):
        # A seeded regression in each continuation style the three files
        # use; the live options around the retired ones are not reported.
        text = (
            "PYTHONPATH=src python -m repro.experiments.cli serve \\\n"
            f"    --dataset stocks {RETIRED_EXECUTOR} process \\\n"
            "    --sink matches.jsonl | grep --count x\n"
            "run: >\n"
            "  PYTHONPATH=src python -m repro.experiments.cli serve\n"
            f"  --size 3 {RETIRED_TRACE}\n"
            "  | tee serve.log\n"
            "python3 bench/run.py --workload serve_drift_seq --trace 0\n"
        )
        assert unknown_cli_invocations(text, module_parsers()) == [
            f"serve {RETIRED_EXECUTOR}",
            f"serve {RETIRED_TRACE}",
        ]

    def test_checker_reports_retired_ingress_and_net_options(self):
        # The README's networked serve example as it stood, plus the net
        # module's CLI in the YAML-folded style ci.yml uses; the live
        # options around the retired ones are not reported.
        text = (
            "PYTHONPATH=src python -m repro.experiments.cli serve \\\n"
            f"    --dataset stocks --listen-port 9000 {RETIRED_TCP_PORT} 9001 \\\n"
            f"    --webhook-url http://127.0.0.1:9100 {RETIRED_SOCKET_SINK} h:1 \\\n"
            f"    {RETIRED_BUFFER_CAPACITY} 16 {RETIRED_OVERFLOW} drop-newest\n"
            "run: |\n"
            "  PYTHONPATH=src python -m repro.streaming.net receive \\\n"
            f"    {RETIRED_RECEIVE_MODE} webhook --port 8421 --out d.jsonl &\n"
            "  PYTHONPATH=src python -m repro.streaming.net push \\\n"
            f"    {RETIRED_PUSH_TCP} 127.0.0.1:9001 --file events.jsonl --end\n"
            "  PYTHONPATH=src python -m repro.streaming.net listen --port 1\n"
        )
        assert unknown_cli_invocations(text, module_parsers()) == [
            f"serve {RETIRED_TCP_PORT}",
            f"serve {RETIRED_SOCKET_SINK}",
            f"serve {RETIRED_BUFFER_CAPACITY}",
            f"serve {RETIRED_OVERFLOW}",
            f"receive {RETIRED_RECEIVE_MODE}",
            f"push {RETIRED_PUSH_TCP}",
            "listen",
        ]

    def test_checker_reports_retired_choice_values(self):
        # A backend and a checkpoint mode the parser no longer offers, in
        # both value spellings; the live options and values around them
        # (including a valid --backend) are not reported.
        text = (
            "PYTHONPATH=src python -m repro.experiments.cli serve \\\n"
            "    --dataset stocks --backend thread --shards 2 \\\n"
            "    --checkpoint-mode=bogus --compile-mode indexed | tee serve.log\n"
            "run: >\n"
            "  PYTHONPATH=src python -m repro.experiments.cli serve\n"
            "  --backend process --checkpoint-mode delta --late-policy drop\n"
        )
        assert unknown_cli_invocations(text, module_parsers()) == [
            "serve --backend thread",
            "serve --checkpoint-mode bogus",
        ]

    def test_checker_reports_the_retired_profiler_surface(self):
        # The README's engine-profiling examples as they stood: the report
        # sub-command and the serve switch that built the profiled engine.
        report = RETIRED_SUBCOMMANDS[1]
        text = (
            f"PYTHONPATH=src python -m repro.experiments.cli {report} "
            "--dataset stocks --top 10\n"
            "PYTHONPATH=src python -m repro.experiments.cli serve --dataset stocks \\\n"
            f"  --control-port 8080 {RETIRED_INTROSPECT}\n"
        )
        assert unknown_cli_invocations(text, module_parsers()) == [
            report,
            f"serve {RETIRED_INTROSPECT}",
        ]

    def test_checker_reports_the_retired_chain_length_option(self):
        # The delta-checkpoint examples of ci.yml and the README as they
        # stood: the live options around the retired one are not reported.
        text = (
            "run: >\n"
            "  PYTHONPATH=src python -m repro.experiments.cli serve --dataset stocks\n"
            "  --checkpoint-dir ckpt --checkpoint-every 300\n"
            f"  --checkpoint-mode delta {RETIRED_FULL_EVERY} 4\n"
            "PYTHONPATH=src python -m repro.experiments.cli serve --dataset stocks \\\n"
            "    --checkpoint-mode delta --checkpoint-every 300 | tee serve.log\n"
        )
        assert unknown_cli_invocations(text, module_parsers()) == [
            f"serve {RETIRED_FULL_EVERY}",
        ]
