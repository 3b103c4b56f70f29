"""Backend names, sqlite's declines at compile, auto dispatch to sqlite or
the algebra, and the deadline/cancel contract on both legs."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro import CancelToken, Database, Relation
import repro.backends.executor
from repro.backends import BACKEND_NAMES, StatementLimiter, execute_mapping
from repro.backends.sqlite_backend import execute_script
from repro.errors import (
    BackendExecutionError,
    BackendUnsupportedError,
    SearchCancelled,
    SearchDeadlineExceeded,
    UnknownBackendError,
)
from repro.fira import (
    CartesianProduct,
    Demote,
    DropAttribute,
    MappingExpression,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
    Select,
    compile_script,
)
from repro.fira.sqlcompile import SqlScript
from repro.obs import MemorySink, Tracer
from repro.workloads import flights_b
from repro.workloads.flights import b_to_a_expression, flights_registry

#: the directory holding the ``repro`` package under test
SRC = str(Path(repro.__file__).resolve().parent.parent)

#: ints outside SQLite's signed 64-bit INTEGER that no float equals, so the
#: intern pool keeps them as ints whatever this process interned before
WIDE_INTS = [2**63 + 1, -(2**64) - 1]


@pytest.fixture
def simple_case():
    db = Database.single(Relation("R", ("A", "B"), [("x", 1), ("y", 2)]))
    expr = MappingExpression([RenameAttribute("R", "A", "C")])
    return db, expr


def case_clash():
    """A promote that puts columns ``a`` and ``A`` side by side: sqlite
    declines it at compile, so under ``auto`` the algebra runs it."""
    db = Database.single(Relation("R", ("k", "v"), [("a", "x"), ("A", "y")]))
    return MappingExpression([Promote("R", "k", "v")]), db


def why_declined(expression, source):
    """The reason compile gives for declining, None when sqlite runs it."""
    try:
        compile_script(expression, source)
    except BackendUnsupportedError as exc:
        return exc.reason
    return None


def leg_case(leg):
    """An expression, a source and the *backend* argument that run on *leg*."""
    if leg == "sqlite":
        return b_to_a_expression(), flights_b(), "sqlite"
    return (*case_clash(), "auto")


class TestRegistry:
    """The names ``execute_mapping`` accepts."""

    def test_backend_names(self):
        assert BACKEND_NAMES == ("auto", "sqlite")

    def test_unknown_backend_lists_known(self, simple_case):
        db, expr = simple_case
        with pytest.raises(UnknownBackendError) as err:
            execute_mapping(expr, db, backend="minisql")
        assert str(err.value) == "unknown backend 'minisql' (known: auto, sqlite)"


def _canonical_bools(db, relation="R"):
    """Whether bools survived interning as bools in this process.

    The value model is equality-faithful: ``True == 1``, so the intern pool
    canonicalizes both to whichever was seen first process-wide (see
    ``repro.relational.intern``).  When ints won, there are no boolean
    canonicals anywhere and SQLite has nothing to be unfaithful about.
    """
    return any(
        isinstance(cell, bool)
        for row in db.relation(relation).rows
        for cell in row
    )


class TestSupports:
    """sqlite declines at compile what it cannot run as the algebra does."""

    def test_sqlite_declines_boolean_sources(self):
        db = Database.single(Relation("R", ("A",), [(True,), (False,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        if _canonical_bools(db):
            assert "BOOLEAN" in why_declined(expr, db)
            with pytest.raises(BackendUnsupportedError):
                execute_mapping(expr, db, backend="sqlite")
        else:
            # True canonicalized to 1 process-wide; sqlite is then faithful
            assert why_declined(expr, db) is None

    def test_sqlite_supports_plain_sources(self, simple_case):
        db, expr = simple_case
        assert why_declined(expr, db) is None

    @pytest.mark.parametrize("value", WIDE_INTS)
    def test_sqlite_declines_wide_int_sources(self, value):
        db = Database.single(Relation("R", ("A",), [(value,), (1,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        assert "64-bit" in why_declined(expr, db)
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")

    @pytest.mark.parametrize("value", [True, False])
    def test_sqlite_declines_a_select_on_a_boolean(self, value):
        db = Database.single(Relation("R", ("A",), [("x",)]))
        expr = MappingExpression([Select("R", "A", value)])
        assert "boolean literal" in why_declined(expr, db)
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    @pytest.mark.parametrize(
        "cell, op",
        [
            (float("inf"), Promote("R", "k", "v")),
            (float("-inf"), Partition("R", "k")),
            ("a\x00b", Promote("R", "k", "v")),
            (float("inf"), Select("R", "k", float("inf"))),
        ],
        ids=["promote-inf", "partition-inf", "promote-nul", "select-inf"],
    )
    def test_sqlite_declines_a_literal_it_cannot_spell(self, cell, op):
        """The algebra names a column or table after the cell (or selects
        on it); SQL has no literal to compare the key column with."""
        db = Database.single(Relation("R", ("k", "v"), [(cell, 1), ("a", 2)]))
        expr = MappingExpression([op])
        assert why_declined(expr, db).startswith(f"{op}: ")
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    @pytest.mark.parametrize(
        "relation, op",
        [
            (Relation("R\x00", ("k",), [("a",)]), RenameRelation("R\x00", "S")),
            (Relation("R", ("k\x00",), [("a",)]), RenameRelation("R", "S")),
            (Relation("R", ("k",), [("a",)]), RenameAttribute("R", "k", "x\x00")),
        ],
        ids=["source-relation", "source-attribute", "renamed-attribute"],
    )
    def test_sqlite_declines_a_name_it_cannot_quote(self, relation, op):
        db = Database.single(relation)
        expr = MappingExpression([op])
        assert "NUL byte" in why_declined(expr, db)
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    def test_sqlite_runs_the_64_bit_extremes(self):
        db = Database.single(Relation("R", ("A",), [(2**63 - 1,), (-(2**63),)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        result = execute_mapping(expr, db, backend="sqlite")
        assert result.database == expr.apply(db)


class TestExecutorDispatch:
    def test_auto_picks_sqlite_for_plain_sources(self, simple_case):
        db, expr = simple_case
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "sqlite"
        assert result.database == expr.apply(db)

    def test_auto_stays_faithful_on_booleans(self):
        db = Database.single(Relation("R", ("A",), [(True,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        result = execute_mapping(expr, db, backend="auto")
        if _canonical_bools(db):
            # sqlite declined the boolean source; the algebra ran it
            assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    def test_auto_runs_boolean_sources_on_the_algebra(self):
        """In a fresh interpreter True is interned before 1, so the source
        holds a bool that sqlite must decline."""
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(
                """
                from repro import Database, MappingExpression, Relation, RenameAttribute
                from repro.backends import execute_mapping
                from repro.errors import BackendUnsupportedError

                db = Database.single(Relation("R", ("A",), [(True,), (False,)]))
                expr = MappingExpression([RenameAttribute("R", "A", "B")])
                result = execute_mapping(expr, db, backend="auto")
                assert result.backend == "algebra", result.backend
                assert result.script is None
                assert "BOOLEAN" in result.declined
                assert result.database == expr.apply(db)
                cells = [v for row in result.database.relation("R").rows for v in row]
                assert all(isinstance(v, bool) for v in cells), cells
                try:
                    execute_mapping(expr, db, backend="sqlite")
                except BackendUnsupportedError:
                    pass
                else:
                    raise AssertionError("explicit sqlite ran a boolean source")
                """
            )],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": SRC},
            timeout=120,
        )
        assert done.returncode == 0, done.stderr

    @pytest.mark.parametrize("value", WIDE_INTS)
    def test_auto_falls_back_on_wide_ints(self, value):
        db = Database.single(Relation("R", ("A",), [(value,), (1,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.script is None
        assert "64-bit" in result.declined
        assert result.database == expr.apply(db)

    def test_unknown_backend_raises_eagerly(self, simple_case):
        db, expr = simple_case
        with pytest.raises(UnknownBackendError):
            execute_mapping(expr, db, backend="bogus")

    def test_explicit_backend_unsupported_raises(self):
        db = Database.single(Relation("R", ("A",), [(True,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        if _canonical_bools(db):
            with pytest.raises(BackendUnsupportedError):
                execute_mapping(expr, db, backend="sqlite")
        else:
            result = execute_mapping(expr, db, backend="sqlite")
            assert result.database == expr.apply(db)

    @pytest.mark.parametrize("backend", ["auto", "sqlite"])
    def test_capability_checked_once_per_call(self, simple_case, monkeypatch, backend):
        """sqlite's capability is decided at compile, once per call."""
        db, expr = simple_case
        calls = []
        original = repro.backends.executor.compile_script

        def counting(expression, *args, **kwargs):
            calls.append(expression)
            return original(expression, *args, **kwargs)

        monkeypatch.setattr(repro.backends.executor, "compile_script", counting)
        execute_mapping(expr, db, backend=backend)
        assert len(calls) == 1

    def test_result_carries_script_and_timings(self, simple_case):
        db, expr = simple_case
        result = execute_mapping(expr, db, backend="sqlite")
        assert result.backend == "sqlite"
        assert result.script.statement_count >= 1
        assert result.compile_seconds >= 0
        assert result.execute_seconds >= 0
        assert result.declined is None
        assert result.database == expr.apply(db)

    def test_algebra_result_carries_no_script(self):
        expr, db = case_clash()
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.script is None
        assert "differ only in case" in result.declined
        assert result.compile_seconds >= 0  # the compile sqlite declined
        assert result.execute_seconds >= 0
        assert result.database == expr.apply(db)


class TestTelemetry:
    def test_trace_events(self, simple_case):
        db, expr = simple_case
        sink = MemorySink()
        with Tracer(sink) as tracer:
            execute_mapping(expr, db, backend="sqlite", tracer=tracer)
        kinds = [e["event"] for e in sink.events]
        assert "backend_compile" in kinds
        assert "backend_execute" in kinds
        execute_event = next(
            e for e in sink.events if e["event"] == "backend_execute"
        )
        assert execute_event["backend"] == "sqlite"
        assert execute_event["statements"] >= 1
        assert execute_event["dur"] >= 0

    def test_algebra_leg_emits_execute_only(self):
        expr, db = case_clash()
        sink = MemorySink()
        with Tracer(sink) as tracer:
            execute_mapping(expr, db, tracer=tracer)
        events = [e for e in sink.events if e["event"].startswith("backend_")]
        assert [e["event"] for e in events] == ["backend_execute"]
        assert events[0]["backend"] == "algebra"
        assert events[0]["statements"] == 0


class TestDeadlineAndCancel:
    """Both legs honor the PR-5 resilience contract: sqlite between
    statements, the algebra between operators."""

    @pytest.mark.parametrize("leg", ["sqlite", "algebra"])
    def test_preset_cancel_stops_before_first_statement(self, leg):
        token = CancelToken()
        token.cancel()
        expr, src, backend = leg_case(leg)
        with pytest.raises(SearchCancelled) as err:
            execute_mapping(
                expr,
                src,
                backend=backend,
                registry=flights_registry(),
                cancel=token,
            )
        assert err.value.states_examined == 0

    @pytest.mark.parametrize("leg", ["sqlite", "algebra"])
    def test_zero_deadline_trips_immediately(self, leg):
        expr, src, backend = leg_case(leg)
        with pytest.raises(SearchDeadlineExceeded) as err:
            execute_mapping(
                expr,
                src,
                backend=backend,
                registry=flights_registry(),
                deadline=0.0,
            )
        assert err.value.deadline == 0.0

    @pytest.mark.parametrize("leg", ["sqlite", "algebra"])
    def test_deadline_counts_compile_time(self, monkeypatch, leg):
        expr, src, backend = leg_case(leg)
        compile_ = repro.backends.executor.compile_script

        def slow_compile(*args, **kwargs):
            time.sleep(0.2)
            return compile_(*args, **kwargs)

        monkeypatch.setattr(repro.backends.executor, "compile_script", slow_compile)
        with pytest.raises(SearchDeadlineExceeded) as err:
            execute_mapping(
                expr, src, backend=backend, registry=flights_registry(),
                deadline=0.1,
            )
        assert err.value.deadline == 0.1
        assert err.value.elapsed >= 0.2

    def test_cancel_between_operators_on_the_algebra(self, monkeypatch):
        """A token set while an operator runs stops the next one."""
        token = CancelToken()
        src = Database.single(Relation("R", ("A",), [(WIDE_INTS[0],), (1,)]))
        expr = MappingExpression(
            [RenameAttribute("R", "A", "B"), RenameRelation("R", "S")]
        )
        apply_ = RenameAttribute.apply

        def cancelling_apply(self, *args, **kwargs):
            token.cancel()
            return apply_(self, *args, **kwargs)

        monkeypatch.setattr(RenameAttribute, "apply", cancelling_apply)
        with pytest.raises(SearchCancelled) as err:
            execute_mapping(expr, src, cancel=token)
        assert err.value.states_examined == 1

    def test_generous_deadline_completes(self):
        src = flights_b()
        result = execute_mapping(
            b_to_a_expression(),
            src,
            backend="sqlite",
            registry=flights_registry(),
            deadline=60.0,
        )
        assert result.database == b_to_a_expression().apply(
            src, flights_registry()
        )


class TestExecutionErrors:
    def test_bad_statement_raises_backend_execution_error(self, simple_case):
        db, _ = simple_case
        script = SqlScript(statements=('SELECT * FROM "NoSuchTable";',), text="")
        with pytest.raises(BackendExecutionError) as err:
            execute_script(script, db, StatementLimiter())
        assert "NoSuchTable" in str(err.value)

    def test_load_failure_raises_backend_execution_error(self):
        # Past compile, which declines this source.
        db = Database.single(Relation("R", ("A",), [(2**63,)]))
        script = SqlScript(statements=(), text="")
        with pytest.raises(BackendExecutionError) as err:
            execute_script(script, db, StatementLimiter())
        assert err.value.statement.startswith("INSERT")

    def test_blob_read_back_raises_backend_execution_error(self, simple_case):
        db, _ = simple_case
        script = SqlScript(
            statements=("CREATE TABLE \"B\" AS SELECT X'00' AS \"b\";",),
            text="",
        )
        with pytest.raises(BackendExecutionError) as err:
            execute_script(script, db, StatementLimiter())
        assert "bytes" in str(err.value)


class TestSqliteNames:
    """SQLite reserves names starting with ``sqlite_`` and folds case."""

    def test_lookalike_source_name_survives_read_back(self):
        db = Database.single(Relation("sqliteData", ("A",), [("x",)]))
        expr = MappingExpression([RenameAttribute("sqliteData", "A", "B")])
        result = execute_mapping(expr, db, backend="sqlite")
        assert result.database == expr.apply(db)

    def test_rename_to_lookalike_name(self):
        db = Database.single(Relation("Other", ("A",), [("x",)]))
        expr = MappingExpression([RenameRelation("Other", "SQLiteCopy")])
        result = execute_mapping(expr, db, backend="sqlite")
        assert result.database == expr.apply(db)

    @pytest.mark.parametrize("name", ["sqlite_stat", "SQLite_data"])
    def test_reserved_source_name_is_declined(self, name):
        db = Database.single(Relation(name, ("A",), [("x",)]))
        expr = MappingExpression([RenameAttribute(name, "A", "B")])
        assert "reserves" in why_declined(expr, db)
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    @pytest.mark.parametrize(
        "op",
        [
            RenameRelation("R", "sqlite_copy"),
            CartesianProduct("R", "S", "Sqlite_product"),
        ],
    )
    def test_reserved_target_name_is_declined(self, op):
        db = Database(
            [Relation("R", ("A",), [("x",)]), Relation("S", ("B",), [("y",)])]
        )
        expr = MappingExpression([op])
        assert "reserves" in why_declined(expr, db)
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    def test_names_differing_only_in_case(self):
        """SQLite folds case: promoted columns 'a' and 'A' would be one
        column to it, so it declines at compile and the algebra runs it."""
        expr, db = case_clash()
        with pytest.raises(BackendUnsupportedError) as err:
            execute_mapping(expr, db, backend="sqlite")
        assert "differ only in case" in str(err.value)
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    def test_partition_into_reserved_name_is_declined(self):
        db = Database.single(
            Relation("R", ("k", "v"), [("sqlite_data", "x"), ("plain", "y")])
        )
        expr = MappingExpression([Partition("R", "k")])
        with pytest.raises(BackendUnsupportedError) as err:
            execute_mapping(expr, db, backend="sqlite")
        assert "reserves" in str(err.value)
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    @pytest.mark.parametrize(
        "expr",
        [
            MappingExpression([DropAttribute("R", "k")]),
            MappingExpression([RenameAttribute("R", "k", "true")]),
        ],
        ids=["source-column", "renamed-column"],
    )
    def test_boolean_column_names_are_declined(self, expr):
        """A table copy names a column FALSE or true ``column<N>``."""
        db = Database.single(
            Relation("R", ("k", "v", "FALSE"), [("x", 1, 2), ("y", 1, 2)])
        )
        if expr[0].keyword == "rename_att":
            db = DropAttribute("R", "FALSE").apply(db)
            expr = MappingExpression([*expr, DropAttribute("R", "v")])
        with pytest.raises(BackendUnsupportedError) as err:
            execute_mapping(expr, db, backend="sqlite")
        assert "reads as a boolean" in str(err.value)
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "algebra"
        assert result.database == expr.apply(db)

    def test_rename_to_own_name_in_other_case(self):
        """SQLite renames a column to another case of its name in place."""
        db = Database.single(Relation("R", ("k",), [("x",)]))
        expr = MappingExpression([RenameAttribute("R", "k", "K")])
        result = execute_mapping(expr, db, backend="sqlite")
        assert result.database == expr.apply(db)


def assert_runs_like_the_algebra(expr, db):
    """Under ``auto`` and ``sqlite`` alike, sqlite returns the algebra's result."""
    expected = expr.apply(db)
    for backend in ("auto", "sqlite"):
        result = execute_mapping(expr, db, backend=backend)
        assert result.backend == "sqlite"
        assert result.database == expected


class TestFixedNames:
    """The names the compiler makes up itself meet the data's names: a
    scratch copy ``<relation>__tupelo_tmp`` and demote's constant table."""

    @pytest.mark.parametrize("name", ["R__tupelo_tmp", "r__TUPELO_TMP"])
    def test_drop_beside_a_source_named_like_the_scratch_table(self, name):
        db = Database(
            [
                Relation("R", ("a", "b"), [(1, "x"), (1, "y")]),
                Relation(name, ("z",), [(1,)]),
            ]
        )
        assert_runs_like_the_algebra(
            MappingExpression([DropAttribute("R", "b")]), db
        )

    @pytest.mark.parametrize("name", ["R__tupelo_tmp", "R__Tupelo_Tmp"])
    def test_drop_after_a_rename_to_the_scratch_name(self, name):
        db = Database(
            [
                Relation("R", ("a", "b"), [(1, "x"), (1, "y")]),
                Relation("S", ("z",), [(1,)]),
            ]
        )
        expr = MappingExpression(
            [RenameRelation("S", name), DropAttribute("R", "b")]
        )
        assert_runs_like_the_algebra(expr, db)

    @pytest.mark.parametrize("name", ["R__tupelo_tmp", "r__tupelo_TMP"])
    def test_partition_whose_data_names_the_scratch_table(self, name):
        db = Database.single(
            Relation("R", ("k", "v"), [("R", 1), (name, 2), ("S", 3)])
        )
        assert_runs_like_the_algebra(MappingExpression([Partition("R", "k")]), db)

    @pytest.mark.parametrize("name", ["__meta", "__META"])
    def test_demote_of_a_relation_named_like_the_constant_table(self, name):
        db = Database.single(Relation(name, ("a", "b"), [(1, "x"), (2, "y")]))
        assert_runs_like_the_algebra(MappingExpression([Demote(name)]), db)
