"""CLI coverage for the `repro execute` command and backend surfaces."""

from __future__ import annotations

import pytest

from repro.cli import EXIT_DEADLINE_EXCEEDED, main
from repro.relational import load_database_dir, save_database
from repro.workloads import flights_b
from repro.workloads.flights import b_to_a_expression, flights_registry


@pytest.fixture
def prepared(tmp_path):
    source = tmp_path / "source"
    save_database(flights_b(), source)
    expr_file = tmp_path / "expr.txt"
    expr_file.write_text(str(b_to_a_expression()) + "\n")
    return source, expr_file, tmp_path


class TestExecute:
    def test_execute_prints_backend_and_result(self, prepared, capsys):
        source, expr_file, _tmp = prepared
        code = main(
            ["execute", "--expression", str(expr_file), "--source", str(source)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "backend:" in out
        assert "Flights" in out

    def test_execute_matches_algebra_via_output_dir(self, prepared, capsys):
        source, expr_file, tmp = prepared
        out_dir = tmp / "result"
        for backend in ("minisql", "sqlite"):
            code = main(
                [
                    "execute",
                    "--expression",
                    str(expr_file),
                    "--source",
                    str(source),
                    "--backend",
                    backend,
                    "--output",
                    str(out_dir / backend),
                ]
            )
            assert code == 0
        capsys.readouterr()
        expected = b_to_a_expression().apply(flights_b(), flights_registry())
        assert load_database_dir(out_dir / "minisql") == expected
        assert load_database_dir(out_dir / "sqlite") == expected

    def test_show_sql_prints_dialect_script(self, prepared, capsys):
        source, expr_file, _tmp = prepared
        code = main(
            [
                "execute",
                "--expression",
                str(expr_file),
                "--source",
                str(source),
                "--backend",
                "sqlite",
                "--show-sql",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "SELECT DISTINCT" in out

    def test_unknown_backend_exits_2_with_known_list(self, prepared, capsys):
        source, expr_file, _tmp = prepared
        code = main(
            [
                "execute",
                "--expression",
                str(expr_file),
                "--source",
                str(source),
                "--backend",
                "bogus",
            ]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown backend 'bogus'" in err
        for name in ("duckdb", "minisql", "sqlite"):
            assert name in err

    def test_expired_deadline_exits_3(self, prepared, capsys):
        # --deadline must be > 0 (0 is a usage error, exit 2); a 1 ns
        # deadline has always passed by the first statement check
        source, expr_file, _tmp = prepared
        code = main(
            [
                "execute",
                "--expression",
                str(expr_file),
                "--source",
                str(source),
                "--deadline",
                "1e-9",
            ]
        )
        err = capsys.readouterr().err
        assert code == EXIT_DEADLINE_EXCEEDED
        assert "deadline" in err


class TestDiscoverExecute:
    def test_discover_execute_prints_backend_result(self, capsys):
        code = main(["discover", "--synthetic", "3", "--execute"])
        out = capsys.readouterr().out
        assert code == 0
        assert "executed on backend" in out
        assert "B01" in out

    def test_discover_bogus_backend_fails_before_search(self, capsys):
        code = main(
            ["discover", "--synthetic", "3", "--execute", "--backend", "nope"]
        )
        err = capsys.readouterr().err
        assert code == 2
        assert "unknown backend 'nope'" in err


class TestInfoBackends:
    def test_info_lists_backends(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "backends:" in out
        assert "minisql" in out and "sqlite" in out
        # duckdb is listed either as available or with its unavailability
        # reason (probed via importlib) — never silently omitted
        assert "duckdb" in out
