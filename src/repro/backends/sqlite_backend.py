"""SQLite backend: execute discovered mappings on the stdlib engine.

SQLite ships with Python, so this backend is always available — it is the
first "real" RDBMS in the equivalence oracle and typically executes large
instances far faster than the interpreted reference engine.

Faithfulness notes (see docs/execution.md for the full matrix):

* **Bag semantics** — SQLite tables are bags; the sqlite dialect re-creates
  tables with ``SELECT DISTINCT`` and compiles column drops as DISTINCT
  re-creations so results match the paper's set-semantics model.
* **Untyped loading** — source tables are created *without* declared column
  types.  SQLite's type affinity would otherwise coerce cells (an INTEGER
  in a ``DOUBLE PRECISION`` column comes back as a REAL) and break
  bit-identical round-trips of mixed-type columns; columns with no declared
  type store every value exactly as supplied.
* **No booleans** — SQLite has no BOOLEAN storage class: ``True`` round
  trips as ``1``.  Rather than silently rewriting values, the backend
  *declines* sources containing booleans (:meth:`SqliteBackend
  .why_unsupported`), and the auto-dispatching executor falls back to the
  reference engine.
* **Reserved and case-folded names** — SQLite refuses table names
  starting with ``sqlite_`` in any ASCII case, so the backend declines
  sources, renames and products that would need one.  It also folds
  identifier case; names that come from data are known only once compile
  has replayed the steps that make them, so the sqlite dialect declines
  there any step that puts two names differing only in case side by side
  or makes a ``sqlite_`` table, and ``auto`` hands over to minisql.
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
from ..fira.combine import CartesianProduct
from ..fira.renames import RenameRelation
from ..fira.structure import Select
from ..relational.database import Database
from ..relational.dialect import SqliteDialect, sqlite_reserved_table
from ..relational.intern import POOL, VALUES
from ..relational.relation import Relation
from ..relational.sql import create_table_sql
from ..relational.types import NULL, Value, is_null
from ..semantics.functions import builtin_registry
from .base import SqlBackend, StatementLimiter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fira.expression import MappingExpression
    from ..fira.sqlcompile import SqlScript
    from ..search.cancel import CancelToken
    from ..semantics.functions import FunctionRegistry


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
        "sqlite",
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


def _bool_tokens() -> frozenset[int]:
    """The tokens whose canonical value is a bool: at most two.

    None when ``1`` or ``0`` was interned first, since the pool conflates
    equal values; a decoded row would then hold the int too.
    """
    tokens = (POOL.get(True), POOL.get(False))
    return frozenset(
        t for t in tokens if t is not None and isinstance(VALUES[t], bool)
    )


def _database_has_bool(db: Database) -> bool:
    flags = _bool_tokens()
    return bool(flags) and any(
        not all(map(flags.isdisjoint, rel.token_rows)) for rel in db
    )


class SqliteBackend(SqlBackend):
    """Stdlib :mod:`sqlite3` backend (in-memory database per execution)."""

    name = "sqlite"
    dialect = SqliteDialect()

    def why_unsupported(
        self,
        expression: "MappingExpression",
        source: Database | None = None,
    ) -> str | None:
        names: list[str] = []
        if source is not None:
            if _database_has_bool(source):
                return (
                    "source contains boolean values and SQLite has no BOOLEAN "
                    "storage class (True would round-trip as 1)"
                )
            names.extend(source.relation_names)
        for op in expression:
            if isinstance(op, Select) and isinstance(op.value, bool):
                return (
                    f"select on boolean literal {op.value!r} cannot be "
                    "rendered for SQLite"
                )
            if isinstance(op, RenameRelation):
                names.append(op.new)
            elif isinstance(op, CartesianProduct):
                names.append(op.result_name)
        return sqlite_reserved_table(names)

    def _load(self, conn: sqlite3.Connection, source: Database) -> None:
        """Create untyped tables and stream rows in via chunked inserts.

        NULL-free relations (the overwhelmingly common case) feed the
        memoised ``sorted_rows_view`` tuples to ``executemany`` as-is —
        no per-row Python copy; relations with NULLs stream through a
        converting generator.  Either way the load materialises at most
        :data:`LOAD_CHUNK_ROWS` parameter tuples at a time.
        """
        d = self.dialect
        for rel in source:
            statement = create_table_sql(rel, d, typed=False)
            try:
                conn.execute(statement)
                placeholders = ", ".join("?" for _ in rel.attributes)
                cols = ", ".join(d.quote_identifier(a) for a in rel.attributes)
                statement = (
                    f"INSERT INTO {d.quote_identifier(rel.name)} "
                    f"({cols}) VALUES ({placeholders})"
                )
                rows: Iterable[Sequence] = rel.sorted_rows_view()
                if rel.has_nulls:
                    rows = (
                        tuple(_to_engine(v) for v in row) for row in rows
                    )
                for chunk in _chunked(rows, LOAD_CHUNK_ROWS):
                    conn.executemany(statement, chunk)
            except (sqlite3.Error, OverflowError) as exc:
                raise BackendExecutionError(self.name, statement, exc) from exc

    def _register_functions(
        self,
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
                    return _to_engine(
                        _fn.apply(*[_from_engine(a) for a in args])
                    )
                except Exception as exc:
                    faults.append(exc)
                    raise

            conn.create_function(
                fn.name, fn.arity, wrapper, deterministic=True
            )

    def _read_back(self, conn: sqlite3.Connection) -> Database:
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
            cursor = conn.execute(
                f"SELECT * FROM {self.dialect.quote_identifier(table)}"
            )
            attributes = [desc[0] for desc in cursor.description]
            try:
                relations.append(Relation(table, attributes, cursor))
            except TypeError as exc:
                raise BackendExecutionError(
                    self.name, f"<read-back of {table!r}>", exc
                ) from exc
        return Database(relations)

    def execute(
        self,
        script: "SqlScript",
        source: Database,
        registry: "FunctionRegistry | None" = None,
        deadline: float | None = None,
        cancel: "CancelToken | None" = None,
    ) -> Database:
        limiter = StatementLimiter(deadline, cancel)
        faults: list[Exception] = []
        conn = sqlite3.connect(":memory:")
        try:
            self._register_functions(conn, registry, faults)
            self._load(conn, source)
            for statement in script.statements:
                limiter.check()
                try:
                    conn.execute(statement)
                except sqlite3.Error as exc:
                    if faults:  # a λ raised: surface its own exception
                        raise faults[0] from None
                    raise BackendExecutionError(
                        self.name, statement, exc
                    ) from exc
                limiter.completed()
            limiter.check()
            return self._read_back(conn)
        finally:
            conn.close()
