"""CLI coverage for the `repro execute` command and backend surfaces."""

from __future__ import annotations

import pytest

from repro import Database, Promote, Relation
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


@pytest.fixture
def declined(tmp_path):
    """A promote meeting values ``a`` and ``A``: sqlite declines it."""
    source = tmp_path / "source"
    save_database(
        Database.single(Relation("R", ("k", "v"), [("a", "x"), ("A", "y")])),
        source,
    )
    expr_file = tmp_path / "expr.txt"
    expr_file.write_text("promote[R](k; v)\n")
    return ["--expression", str(expr_file), "--source", str(source)]


@pytest.fixture
def unspellable(tmp_path):
    """A promote over a column holding ``inf``: SQL has no literal for it."""
    source = tmp_path / "source"
    source.mkdir()
    (source / "R.csv").write_text("k,v\ninf,1\na,2\n")
    expr_file = tmp_path / "expr.txt"
    expr_file.write_text("promote[R](k; v)\n")
    return ["--expression", str(expr_file), "--source", str(source)]


#: how sqlite declines the ``unspellable`` promote
INF_DECLINE = (
    "sqlite declined: promote[R](k; v): cannot render non-finite float inf "
    "as a SQL literal"
)


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
        for backend in ("auto", "sqlite"):
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
        assert load_database_dir(out_dir / "auto") == expected
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
        for name in ("bogus", "minisql"):
            code = main(
                [
                    "execute",
                    "--expression",
                    str(expr_file),
                    "--source",
                    str(source),
                    "--backend",
                    name,
                ]
            )
            err = capsys.readouterr().err
            assert code == 2
            assert f"unknown backend '{name}' (known: auto, sqlite)" in err

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

    def test_declined_mapping_runs_on_the_algebra(self, declined, capsys):
        assert main(["execute", *declined, "--show-sql"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("backend: algebra  (sqlite declined: names ")
        assert "-- no SQL ran" in out
        assert "  A     a     k  v\n" in out  # both promoted columns

    def test_declined_mapping_with_explicit_sqlite_exits_2(self, declined, capsys):
        assert main(["execute", *declined, "--backend", "sqlite"]) == 2
        assert "differ only in case" in capsys.readouterr().err

    def test_expired_deadline_on_the_algebra_exits_3(self, declined, capsys):
        code = main(["execute", *declined, "--deadline", "1e-9"])
        assert code == EXIT_DEADLINE_EXCEEDED
        assert "deadline" in capsys.readouterr().err


class TestUnspellableValue:
    def test_execute_runs_it_on_the_algebra(self, unspellable, capsys):
        assert main(["execute", *unspellable, "--show-sql"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"backend: algebra  ({INF_DECLINE};")
        assert "  a     inf   k    v\n" in out  # both promoted columns

    def test_explicit_sqlite_exits_2(self, unspellable, capsys):
        assert main(["execute", *unspellable, "--backend", "sqlite"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: backend 'sqlite' cannot execute this mapping")
        assert "non-finite float inf" in err

    def test_discover_show_sql_prints_the_decline(
        self, unspellable, tmp_path, capsys
    ):
        source = load_database_dir(tmp_path / "source")
        save_database(Promote("R", "k", "v").apply(source), tmp_path / "target")
        code = main(
            [
                "discover",
                "--source", str(tmp_path / "source"),
                "--target", str(tmp_path / "target"),
                "--show-sql",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "\npromote[R](k; v)\n" in out
        assert f"-- {INF_DECLINE}\n" in out
        assert "CREATE TABLE" not in out


def test_execute_prints_a_nan_cell_as_apply_does(tmp_path, capsys):
    """``nan`` is text: sqlite keeps it, where a float NaN became NULL."""
    source = tmp_path / "source"
    source.mkdir()
    (source / "R.csv").write_text("A,B\nnan,1\n")
    expr_file = tmp_path / "expr.txt"
    expr_file.write_text("rename_att[R](A -> C)\n")
    args = ["--expression", str(expr_file), "--source", str(source)]
    assert main(["apply", *args]) == 0
    applied = capsys.readouterr().out
    assert main(["execute", *args, "--backend", "sqlite"]) == 0
    executed = capsys.readouterr().out
    assert "nan" in applied and "NULL" not in executed
    assert executed.endswith(applied)


class TestDiscoverExecute:
    def test_discover_execute_prints_backend_result(self, capsys):
        code = main(["discover", "--synthetic", "3", "--execute"])
        out = capsys.readouterr().out
        assert code == 0
        assert "executed on backend" in out
        assert "B01" in out

    def test_discover_bogus_backend_fails_before_search(self, capsys):
        for name in ("nope", "minisql"):
            code = main(
                ["discover", "--synthetic", "3", "--execute", "--backend", name]
            )
            captured = capsys.readouterr()
            assert code == 2
            assert f"unknown backend '{name}' (known: auto, sqlite)" in captured.err
            assert "status:" not in captured.out


class TestInfoBackends:
    def test_info_lists_backends(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "backends: auto, sqlite (auto runs what sqlite declines" in out
