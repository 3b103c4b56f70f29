"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import argparse
import re

import pytest

import repro.cli
from repro.cli import build_parser, main
from repro.relational import load_database_dir, save_database
from repro.workloads import flights_a, flights_b, flights_c


@pytest.fixture
def dirs(tmp_path):
    source = tmp_path / "source"
    target = tmp_path / "target"
    save_database(flights_b(), source)
    save_database(flights_a(), target)
    return source, target, tmp_path


class TestDiscover:
    def test_discover_success(self, dirs, capsys):
        source, target, _tmp = dirs
        code = main(
            [
                "discover",
                "--source",
                str(source),
                "--target",
                str(target),
                "--heuristic",
                "euclid_norm",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "status: found" in out
        assert "promote[" in out

    def test_discover_writes_replayable_expression(self, dirs, capsys):
        source, target, tmp = dirs
        expr_file = tmp / "expr.txt"
        assert (
            main(
                [
                    "discover",
                    "--source",
                    str(source),
                    "--target",
                    str(target),
                    "--heuristic",
                    "euclid_norm",
                    "--output",
                    str(expr_file),
                ]
            )
            == 0
        )
        capsys.readouterr()
        out_dir = tmp / "mapped"
        assert (
            main(
                [
                    "apply",
                    "--expression",
                    str(expr_file),
                    "--source",
                    str(source),
                    "--output",
                    str(out_dir),
                ]
            )
            == 0
        )
        mapped = load_database_dir(out_dir)
        assert mapped.contains(flights_a())

    def test_discover_failure_exit_code(self, dirs, capsys):
        source, target, tmp = dirs
        # unreachable target: unknown value nowhere in the source
        unreachable = tmp / "unreachable"
        save_database(flights_c(), unreachable)
        code = main(
            [
                "discover",
                "--source",
                str(source),
                "--target",
                str(unreachable),
                "--budget",
                "2000",
            ]
        )
        assert code == 1
        assert "status:" in capsys.readouterr().out

    def test_discover_with_correspondence(self, dirs, capsys):
        source, _target, tmp = dirs
        target_c = tmp / "target_c"
        save_database(flights_c(), target_c)
        code = main(
            [
                "discover",
                "--source",
                str(source),
                "--target",
                str(target_c),
                "--correspondence",
                "TotalCost<-add(Cost,AgentFee)",
                "--show-matching",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "apply[" in out
        assert "--[add]->" in out

    def test_show_sql(self, dirs, capsys):
        source, target, _tmp = dirs
        code = main(
            [
                "discover",
                "--source",
                str(source),
                "--target",
                str(target),
                "--heuristic",
                "cosine",
                "--show-sql",
            ]
        )
        assert code == 0
        assert "CREATE TABLE" in capsys.readouterr().out


class TestDiscoverTrace:
    def test_discover_records_trace(self, dirs, capsys):
        source, target, tmp = dirs
        trace_file = tmp / "run.jsonl"
        code = main(
            [
                "discover",
                "--source",
                str(source),
                "--target",
                str(target),
                "--heuristic",
                "euclid_norm",
                "--trace",
                str(trace_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert f"trace written to {trace_file}" in out
        from repro.obs import load_trace, replay_counters

        events = load_trace(trace_file)  # schema-validates on load
        assert events[0]["event"] == "span_start"  # the discover phase span
        assert events[0]["name"] == "discover"
        assert any(event["event"] == "search_start" for event in events)
        assert events[-1]["event"] == "search_end"
        assert replay_counters(events)["states_examined"] > 0

    def test_discover_unwritable_trace_path_exits_cleanly(self, dirs, capsys):
        source, target, tmp = dirs
        bad = tmp / "no_such_dir" / "run.jsonl"
        code = main(
            [
                "discover",
                "--source",
                str(source),
                "--target",
                str(target),
                "--trace",
                str(bad),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error: cannot write trace to" in captured.err


class TestTrace:
    def test_synthetic_record_and_profile(self, tmp_path, capsys):
        trace_file = tmp_path / "fig5.jsonl"
        code = main(
            [
                "trace",
                "--synthetic",
                "3",
                "--algorithm",
                "ida",
                "--heuristic",
                "h0",
                "--output",
                str(trace_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert trace_file.exists()
        assert "traced synthetic matching n=3" in out
        assert "run profile: ida/h0" in out
        assert "cache efficiency" in out

    def test_inspect_existing_trace(self, tmp_path, capsys):
        trace_file = tmp_path / "fig5.jsonl"
        assert (
            main(
                ["trace", "--synthetic", "3", "--output", str(trace_file)]
            )
            == 0
        )
        capsys.readouterr()
        code = main(["trace", "--inspect", str(trace_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "schema v1" in out
        assert "run profile: ida/h0" in out

    def test_inspect_rejects_foreign_file(self, tmp_path, capsys):
        not_a_trace = tmp_path / "junk.jsonl"
        not_a_trace.write_text('{"hello": "world"}\n')
        code = main(["trace", "--inspect", str(not_a_trace)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_instances_work_too(self, dirs, tmp_path, capsys):
        source, target, _tmp = dirs
        trace_file = tmp_path / "csv.jsonl"
        code = main(
            [
                "trace",
                "--source",
                str(source),
                "--target",
                str(target),
                "--algorithm",
                "rbfs",
                "--heuristic",
                "euclid_norm",
                "--output",
                str(trace_file),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "run profile: rbfs/euclid_norm" in out

    def test_requires_workload(self, capsys):
        code = main(["trace", "--output", "x.jsonl"])
        assert code == 2
        assert "--synthetic" in capsys.readouterr().err

    def test_requires_output(self, capsys):
        code = main(["trace", "--synthetic", "3"])
        assert code == 2
        assert "--output" in capsys.readouterr().err

    def test_rejects_bad_synthetic_size(self, capsys):
        code = main(["trace", "--synthetic", "0", "--output", "x.jsonl"])
        assert code == 2
        assert "size >= 1" in capsys.readouterr().err


class TestInputErrors:
    """Bad inputs exit 2 with one ``error:`` line, never a traceback."""

    def test_discover_missing_directory_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "absent")
        code = main(["discover", "--source", missing, "--target", missing])
        captured = capsys.readouterr()
        assert code == 2
        assert f"error: {missing} is not a directory" in captured.err
        assert "status:" not in captured.out

    def test_tnf_directory_without_csv_exits_2(self, tmp_path, capsys):
        code = main(["tnf", "--source", str(tmp_path)])
        assert code == 2
        assert "no file matching '*.csv'" in capsys.readouterr().err

    def test_synthetic_with_source_exits_2(self, dirs, capsys):
        source, target, _tmp = dirs
        code = main(
            [
                "discover",
                "--synthetic",
                "3",
                "--source",
                str(source),
                "--target",
                str(target),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "--synthetic cannot be combined" in captured.err
        assert "status:" not in captured.out

    @pytest.mark.parametrize(
        "argv",
        [
            ["discover", "--synthetic", "2", "--budget", "0"],
            ["discover", "--synthetic", "2", "--deadline", "0"],
            ["discover", "--synthetic", "2", "--deadline", "-1"],
            ["discover", "--synthetic", "2", "--heuristic", "levenshtein",
             "--k", "0.5"],
            ["discover", "--synthetic", "2", "--heuristic", "cosine", "--k", "0"],
            ["discover", "--synthetic", "2", "--heuristic", "h1", "--k", "0"],
            ["trace", "--synthetic", "2", "--output", "{out}", "--budget", "0"],
            ["trace", "--synthetic", "2", "--output", "{out}", "--k", "0"],
            ["profile", "--synthetic", "2", "--budget", "0"],
            ["experiments", "--sizes", "0"],
            ["experiments", "--sizes", "2", "--budget", "0"],
            ["experiments", "--sizes", "2", "--deadline", "0"],
            ["experiments", "--sizes", "2", "--deadline", "-1"],
            ["experiments", "--sizes", "2", "--heuristic", "cosine", "--k", "0"],
            ["execute", "--expression", "{out}", "--source", "{out}",
             "--deadline", "0"],
        ],
    )
    def test_out_of_range_numbers_are_usage_errors(self, argv, tmp_path, capsys):
        """Checked at parse time: usage plus an error line, exit 2."""
        out = str(tmp_path / "out.jsonl")
        with pytest.raises(SystemExit) as exit_info:
            main([arg.replace("{out}", out) for arg in argv])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "expected" in err
        assert not (tmp_path / "out.jsonl").exists()

    @pytest.mark.parametrize("command", ["apply", "execute"])
    def test_missing_expression_file_exits_2(self, dirs, capsys, command):
        source, _target, tmp = dirs
        missing = str(tmp / "absent.txt")
        code = main(
            [command, "--expression", missing, "--source", str(source)]
        )
        assert code == 2
        assert f"error: cannot read expression {missing}:" in (
            capsys.readouterr().err
        )


class TestOtherCommands:
    def test_apply_prints_by_default(self, dirs, capsys, tmp_path):
        source, _target, tmp = dirs
        expr_file = tmp / "e.txt"
        expr_file.write_text("rename_rel(Prices -> Quotes)\n")
        assert (
            main(["apply", "--expression", str(expr_file), "--source", str(source)])
            == 0
        )
        assert "Quotes:" in capsys.readouterr().out

    def test_tnf(self, dirs, capsys):
        source, _target, _tmp = dirs
        assert main(["tnf", "--source", str(source)]) == 0
        out = capsys.readouterr().out
        assert "TID" in out and "VALUE" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "rbfs" in out and "cosine" in out and "hybrid" in out

    def test_info_reports_telemetry(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "telemetry: structured tracing (schema v1)" in out
        assert "sinks: null, memory, jsonl, logging" in out
        assert "expand" in out and "search_end" in out

    def test_error_reported_cleanly(self, dirs, capsys, tmp_path):
        source, _target, tmp = dirs
        bad_expr = tmp / "bad.txt"
        bad_expr.write_text("frobnicate[R](A)\n")
        code = main(
            ["apply", "--expression", str(bad_expr), "--source", str(source)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


def test_usage_docstring_lists_every_long_option():
    """Each subcommand's block in the module docstring names all its flags."""
    usage = repro.cli.__doc__.split("Exit codes:")[0]
    blocks: dict[str, str] = {}
    for chunk in re.split(r"(?m)^\s*(?=python -m repro )", usage)[1:]:
        command = chunk.split()[3]
        blocks[command] = blocks.get(command, "") + chunk
    (commands,) = [
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    missing = [
        (name, option)
        for name, subparser in commands.items()
        for action in subparser._actions
        for option in action.option_strings
        if option.startswith("--")
        and option != "--help"
        and not re.search(re.escape(option) + r"(?![\w-])", blocks[name])
    ]
    assert missing == []
