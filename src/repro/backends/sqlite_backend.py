"""SQLite backend: run compiled mappings on the stdlib engine.

SQLite ships with Python, so this backend is always available.  It runs
large instances several times faster than the in-memory algebra, whose
results it must equal bit for bit (``tests/test_backend_equivalence.py``).
:func:`execute_script` loads the source into an in-memory database,
registers the semantic functions, runs a script that
:func:`~repro.fira.sqlcompile.compile_script` made, and reads the result
back.

Faithfulness notes (see docs/execution.md for the full matrix):

* **Bag semantics** — SQLite tables are bags; the compiler re-creates
  tables with ``SELECT DISTINCT`` and compiles column drops as DISTINCT
  re-creations so results match the paper's set-semantics model.
* **Untyped loading** — source tables are created *without* declared column
  types.  SQLite's type affinity would otherwise coerce cells (an INTEGER
  in a ``DOUBLE PRECISION`` column comes back as a REAL) and break
  bit-identical round-trips of mixed-type columns; columns with no declared
  type store every value exactly as supplied.
* **Declines** — what SQLite cannot hold (booleans, ints beyond 64 bits,
  ``sqlite_`` tables, names differing only in case, columns called
  ``TRUE`` or ``FALSE``) is declined at compile
  (:func:`~repro.fira.sqlcompile.check_step`), and ``auto`` hands the
  mapping to the in-memory algebra.
* **UDFs** — λ applications run through :meth:`sqlite3.Connection
  .create_function` wrappers around the project's semantic functions, with
  NULL↔None conversion at the boundary.  SQLite reports a function that
  raised only as "user-defined function raised exception", so the backend
  re-raises the function's own exception.
"""

from __future__ import annotations

import sqlite3
from itertools import islice
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ..errors import BackendExecutionError
from ..fira.sqlcompile import SqlScript
from ..relational.database import Database
from ..relational.dialect import SQLITE, quote_identifier
from ..relational.relation import Relation
from ..relational.sql import create_table_sql
from ..relational.types import NULL, Value, is_null
from ..semantics.functions import builtin_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..semantics.functions import FunctionRegistry
    from .executor import StatementLimiter


def _to_engine(value: Value) -> object:
    """Library value -> sqlite3 parameter (NULL becomes None)."""
    return None if is_null(value) else value


def _from_engine(cell: object) -> Value:
    """sqlite3 UDF argument -> library value (None becomes NULL)."""
    if cell is None:
        return NULL
    if isinstance(cell, (int, float, str)):
        return cell
    raise BackendExecutionError(
        SQLITE,
        "<udf argument>",
        TypeError(f"sqlite passed unsupported cell type {type(cell).__name__}"),
    )


#: rows per executemany batch during load — large enough to amortise the
#: statement dispatch, small enough that peak memory stays one chunk of
#: parameter tuples rather than a full copy of the relation
LOAD_CHUNK_ROWS = 4096


def _chunked(rows: Iterable[Sequence], size: int) -> Iterator[list]:
    """Yield *rows* in lists of at most *size* (last chunk may be short)."""
    it = iter(rows)
    while chunk := list(islice(it, size)):
        yield chunk


def _load(conn: sqlite3.Connection, source: Database) -> None:
    """Create untyped tables and stream rows in via chunked inserts.

    NULL-free relations (the overwhelmingly common case) feed the
    memoised ``sorted_rows_view`` tuples to ``executemany`` as-is —
    no per-row Python copy; relations with NULLs stream through a
    converting generator.  Either way the load materialises at most
    :data:`LOAD_CHUNK_ROWS` parameter tuples at a time.
    """
    for rel in source:
        statement = create_table_sql(rel, typed=False)
        try:
            conn.execute(statement)
            placeholders = ", ".join("?" for _ in rel.attributes)
            cols = ", ".join(quote_identifier(a) for a in rel.attributes)
            statement = (
                f"INSERT INTO {quote_identifier(rel.name)} "
                f"({cols}) VALUES ({placeholders})"
            )
            rows: Iterable[Sequence] = rel.sorted_rows_view()
            if rel.has_nulls:
                rows = (tuple(_to_engine(v) for v in row) for row in rows)
            for chunk in _chunked(rows, LOAD_CHUNK_ROWS):
                conn.executemany(statement, chunk)
        except (sqlite3.Error, OverflowError) as exc:
            raise BackendExecutionError(SQLITE, statement, exc) from exc


def _register_functions(
    conn: sqlite3.Connection,
    registry: "FunctionRegistry | None",
    faults: list[Exception],
) -> None:
    """Register every semantic function as a UDF on *conn*.

    A function that raises is recorded in *faults* before SQLite turns
    its exception into a generic statement error.
    """
    reg = registry if registry is not None else builtin_registry()
    for fn in reg:
        def wrapper(*args: object, _fn=fn) -> object:
            try:
                return _to_engine(_fn.apply(*[_from_engine(a) for a in args]))
            except Exception as exc:
                faults.append(exc)
                raise

        conn.create_function(fn.name, fn.arity, wrapper, deterministic=True)


def _read_back(conn: sqlite3.Connection) -> Database:
    """Turn the connection's catalogue back into a Database value.

    Each cursor goes straight to the :class:`Relation` constructor:
    sqlite3 returns int, float, str, None (NULL) and bytes, and a BLOB
    fails the constructor's value check.
    """
    tables = [
        row[0]
        for row in conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table' "
            "AND name NOT LIKE 'sqlite\\_%' ESCAPE '\\'"
        )
    ]
    relations = []
    for table in tables:
        cursor = conn.execute(f"SELECT * FROM {quote_identifier(table)}")
        attributes = [desc[0] for desc in cursor.description]
        try:
            relations.append(Relation(table, attributes, cursor))
        except TypeError as exc:
            raise BackendExecutionError(
                SQLITE, f"<read-back of {table!r}>", exc
            ) from exc
    return Database(relations)


def execute_script(
    script: SqlScript,
    source: Database,
    limiter: "StatementLimiter",
    registry: "FunctionRegistry | None" = None,
) -> Database:
    """Load *source*, run *script* statement by statement, read back.

    Polls *limiter* before every statement and after the last.
    """
    faults: list[Exception] = []
    conn = sqlite3.connect(":memory:")
    try:
        _register_functions(conn, registry, faults)
        _load(conn, source)
        for statement in script.statements:
            limiter.check()
            try:
                conn.execute(statement)
            except sqlite3.Error as exc:
                if faults:  # a λ raised: surface its own exception
                    raise faults[0] from None
                raise BackendExecutionError(SQLITE, statement, exc) from exc
            limiter.completed()
        limiter.check()
        return _read_back(conn)
    finally:
        conn.close()
