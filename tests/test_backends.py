"""The backend registry, auto dispatch, and the deadline/cancel contract."""

from __future__ import annotations

import time

import pytest

from repro import CancelToken, Database, Relation
from repro.backends import (
    MiniSqlBackend,
    SqlBackend,
    SqliteBackend,
    backend_names,
    execute_mapping,
    get_backend,
)
from repro.errors import (
    BackendExecutionError,
    BackendUnsupportedError,
    SearchCancelled,
    SearchDeadlineExceeded,
    UnknownBackendError,
)
from repro.fira import (
    CartesianProduct,
    MappingExpression,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
)
from repro.fira.sqlcompile import SqlScript
from repro.obs import MemorySink, Tracer
from repro.workloads import flights_b
from repro.workloads.flights import b_to_a_expression, flights_registry

#: ints outside SQLite's signed 64-bit INTEGER that no float equals, so the
#: intern pool keeps them as ints whatever this process interned before
WIDE_INTS = [2**63 + 1, -(2**64) - 1]


@pytest.fixture
def simple_case():
    db = Database.single(Relation("R", ("A", "B"), [("x", 1), ("y", 2)]))
    expr = MappingExpression([RenameAttribute("R", "A", "C")])
    return db, expr


class TestRegistry:
    def test_backend_names(self):
        assert backend_names() == ("minisql", "sqlite")

    def test_get_backend(self):
        assert get_backend("minisql").name == "minisql"
        assert get_backend("sqlite").name == "sqlite"

    def test_unknown_backend_lists_known(self):
        with pytest.raises(UnknownBackendError) as err:
            get_backend("bogus")
        message = str(err.value)
        assert "bogus" in message
        for name in backend_names():
            assert name in message


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
    def test_minisql_supports_everything(self, simple_case):
        db, expr = simple_case
        assert MiniSqlBackend().why_unsupported(expr, db) is None

    def test_sqlite_declines_boolean_sources(self):
        db = Database.single(Relation("R", ("A",), [(True,), (False,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        backend = SqliteBackend()
        if _canonical_bools(db):
            assert "BOOLEAN" in backend.why_unsupported(expr, db)
            with pytest.raises(BackendUnsupportedError):
                execute_mapping(expr, db, backend="sqlite")
        else:
            # True canonicalized to 1 process-wide; sqlite is then faithful
            assert backend.why_unsupported(expr, db) is None

    def test_sqlite_supports_plain_sources(self, simple_case):
        db, expr = simple_case
        assert SqliteBackend().why_unsupported(expr, db) is None

    @pytest.mark.parametrize("value", WIDE_INTS)
    def test_sqlite_declines_wide_int_sources(self, value):
        db = Database.single(Relation("R", ("A",), [(value,), (1,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        assert "64-bit" in SqliteBackend().why_unsupported(expr, db)
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")

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
            # sqlite declined the boolean source; auto fell back
            assert result.backend == "minisql"
        assert result.database == expr.apply(db)

    @pytest.mark.parametrize("value", WIDE_INTS)
    def test_auto_falls_back_on_wide_ints(self, value):
        db = Database.single(Relation("R", ("A",), [(value,), (1,)]))
        expr = MappingExpression([RenameAttribute("R", "A", "B")])
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "minisql"
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
        db, expr = simple_case
        calls = []
        original = SqliteBackend.why_unsupported

        def counting(self, expression, source=None):
            calls.append(expression)
            return original(self, expression, source)

        monkeypatch.setattr(SqliteBackend, "why_unsupported", counting)
        result = execute_mapping(expr, db, backend=backend)
        assert len(calls) == (1 if result.backend == "sqlite" else 0)

    def test_result_carries_script_and_timings(self, simple_case):
        db, expr = simple_case
        result = execute_mapping(expr, db, backend="sqlite")
        assert result.backend == "sqlite"
        assert result.script.dialect == "sqlite"
        assert result.script.statement_count >= 1
        assert result.compile_seconds >= 0
        assert result.execute_seconds >= 0
        assert result.database == expr.apply(db)


class TestTelemetry:
    def test_trace_events(self, simple_case):
        db, expr = simple_case
        sink = MemorySink()
        with Tracer(sink) as tracer:
            execute_mapping(expr, db, backend="minisql", tracer=tracer)
        kinds = [e["event"] for e in sink.events]
        assert "backend_compile" in kinds
        assert "backend_execute" in kinds
        execute_event = next(
            e for e in sink.events if e["event"] == "backend_execute"
        )
        assert execute_event["backend"] == "minisql"
        assert execute_event["statements"] >= 1
        assert execute_event["dur"] >= 0


class TestDeadlineAndCancel:
    """Backends honor the PR-5 resilience contract between statements."""

    @pytest.mark.parametrize("backend", ["minisql", "sqlite"])
    def test_preset_cancel_stops_before_first_statement(self, backend):
        token = CancelToken()
        token.cancel()
        src = flights_b()
        with pytest.raises(SearchCancelled) as err:
            execute_mapping(
                b_to_a_expression(),
                src,
                backend=backend,
                registry=flights_registry(),
                cancel=token,
            )
        assert err.value.states_examined == 0

    @pytest.mark.parametrize("backend", ["minisql", "sqlite"])
    def test_zero_deadline_trips_immediately(self, backend):
        src = flights_b()
        with pytest.raises(SearchDeadlineExceeded) as err:
            execute_mapping(
                b_to_a_expression(),
                src,
                backend=backend,
                registry=flights_registry(),
                deadline=0.0,
            )
        assert err.value.deadline == 0.0

    @pytest.mark.parametrize("backend", ["minisql", "sqlite"])
    def test_deadline_counts_compile_time(self, simple_case, monkeypatch, backend):
        db, expr = simple_case
        compile_ = SqlBackend.compile

        def slow_compile(self, *args, **kwargs):
            time.sleep(0.2)
            return compile_(self, *args, **kwargs)

        monkeypatch.setattr(SqlBackend, "compile", slow_compile)
        with pytest.raises(SearchDeadlineExceeded) as err:
            execute_mapping(expr, db, backend=backend, deadline=0.1)
        assert err.value.deadline == 0.1
        assert err.value.elapsed >= 0.2

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
        from repro.fira.sqlcompile import SqlScript

        script = SqlScript(
            dialect="sqlite",
            statements=('SELECT * FROM "NoSuchTable";',),
            text="",
        )
        with pytest.raises(BackendExecutionError) as err:
            SqliteBackend().execute(script, db)
        assert "NoSuchTable" in str(err.value)

    def test_load_failure_raises_backend_execution_error(self):
        # Past the capability check, which declines this source.
        db = Database.single(Relation("R", ("A",), [(2**63,)]))
        script = SqlScript(dialect="sqlite", statements=(), text="")
        with pytest.raises(BackendExecutionError) as err:
            SqliteBackend().execute(script, db)
        assert err.value.statement.startswith("INSERT")

    def test_blob_read_back_raises_backend_execution_error(self, simple_case):
        db, _ = simple_case
        script = SqlScript(
            dialect="sqlite",
            statements=("CREATE TABLE \"B\" AS SELECT X'00' AS \"b\";",),
            text="",
        )
        with pytest.raises(BackendExecutionError) as err:
            SqliteBackend().execute(script, db)
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
        assert "reserves" in SqliteBackend().why_unsupported(expr, db)
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expr, db, backend="sqlite")
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "minisql"
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
        assert "reserves" in SqliteBackend().why_unsupported(expr, db)
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "minisql"
        assert result.database == expr.apply(db)

    def test_names_differing_only_in_case(self):
        """SQLite folds case: promoted columns 'a' and 'A' would be one
        column to it, so it declines at compile and auto falls back."""
        db = Database.single(Relation("R", ("k", "v"), [("a", "x"), ("A", "y")]))
        expr = MappingExpression([Promote("R", "k", "v")])
        assert SqliteBackend().why_unsupported(expr, db) is None
        with pytest.raises(BackendUnsupportedError) as err:
            execute_mapping(expr, db, backend="sqlite")
        assert "differ only in case" in str(err.value)
        result = execute_mapping(expr, db, backend="auto")
        assert result.backend == "minisql"
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
        assert result.backend == "minisql"
        assert result.database == expr.apply(db)

    def test_rename_to_own_name_in_other_case(self):
        """SQLite renames a column to another case of its name in place."""
        db = Database.single(Relation("R", ("k",), [("x",)]))
        expr = MappingExpression([RenameAttribute("R", "k", "K")])
        result = execute_mapping(expr, db, backend="sqlite")
        assert result.database == expr.apply(db)
