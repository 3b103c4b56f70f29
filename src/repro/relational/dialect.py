"""SQLite's SQL: how names, values and casts are spelled, and what it declines.

The FIRA → SQL compiler (:mod:`repro.fira.sqlcompile`) and the rendering
helpers of :mod:`repro.relational.sql` emit SQL for one engine, stdlib
``sqlite3``, the engine :func:`~repro.backends.executor.execute_mapping`
runs.  Its rules live here as plain functions:

* Identifiers are double-quoted with embedded quotes doubled (non-ASCII
  text passes through: data values promoted to names may be arbitrary
  text), string literals single-quoted.  An empty identifier, a NUL byte,
  a non-finite float and a boolean (SQLite has no BOOLEAN storage class)
  raise :class:`~repro.errors.SqlRenderingError` instead of emitting SQL
  that would fail or silently change meaning.
* ``CAST(2.0 AS TEXT)`` is ``'2.0'`` in SQLite but the canonical text is
  ``'2'``, so :func:`cast_to_text` guards the cast with ``typeof``.
* SQLite cannot name the columns of a FROM-clause alias, so
  :func:`values_table` spells a constant table as a ``UNION ALL`` of
  SELECTs; UDF names can collide with keywords, so :func:`function_call`
  quotes them.
* :func:`why_unrepresentable` says why SQLite cannot hold a source or the
  names a step puts side by side.  It cannot quote an empty name or one
  holding a NUL byte, folds the case of ASCII letters in identifiers,
  reserves ``sqlite_`` table names and renames a copied column called
  ``TRUE`` or ``FALSE``; it cannot store a bool or an int beyond 64 bits.

SQLite tables are bags, so the compiler re-creates tables with ``SELECT
DISTINCT`` and compiles column drops as such re-creations, which keeps
executed results equal to the paper's set semantics.
"""

from __future__ import annotations

import math
import string
from typing import TYPE_CHECKING, Collection, Iterable

from ..errors import SqlRenderingError
from .intern import POOL, VALUES, WIDE_INT_TOKENS
from .types import Value, is_null

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database

#: the engine these rules are for, named on its declines and results
SQLITE = "sqlite"


def quote_identifier(name: str) -> str:
    """Quote *name* as a SQL identifier, validating it is representable.

    Raises:
        SqlRenderingError: for an empty identifier or one containing NUL
            (SQLite can parse neither from SQL text).
    """
    if not isinstance(name, str) or not name:
        raise SqlRenderingError(
            f"cannot quote empty or non-string SQL identifier {name!r}"
        )
    if "\x00" in name:
        raise SqlRenderingError(
            f"SQL identifier {name!r} contains a NUL byte"
        )
    return '"' + name.replace('"', '""') + '"'


def quote_literal(value: Value) -> str:
    """Render a relational value as a SQL literal.

    ``repr`` round-trips both ints and floats exactly; ``inf`` and ``nan``
    have no SQL spelling, so they fail loudly here rather than emit an
    identifier-lookalike the engine would misparse.

    Raises:
        SqlRenderingError: for a bool, a non-finite float or a string
            holding a NUL byte.
    """
    if is_null(value):
        return "NULL"
    if isinstance(value, bool):
        raise SqlRenderingError(
            f"cannot render boolean literal {value!r}: SQLite has no BOOLEAN "
            "storage class"
        )
    if isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            raise SqlRenderingError(
                f"cannot render non-finite float {value!r} as a SQL literal"
            )
        return repr(value)
    text = str(value)
    if "\x00" in text:
        raise SqlRenderingError(
            f"SQL string literal {text!r} contains a NUL byte"
        )
    return "'" + text.replace("'", "''") + "'"


def cast_to_text(expr_sql: str) -> str:
    """SQL computing the canonical text of *expr_sql*.

    The canonical rendering is :func:`repro.relational.types
    .value_to_text`, in which integral floats drop the trailing ``.0``;
    the ``typeof`` guard converts integral REALs through INTEGER first.
    """
    return (
        f"CASE WHEN typeof({expr_sql}) = 'real' "
        f"AND {expr_sql} = CAST({expr_sql} AS INTEGER) "
        f"THEN CAST(CAST({expr_sql} AS INTEGER) AS TEXT) "
        f"ELSE CAST({expr_sql} AS TEXT) END"
    )


def values_table(
    rows: "list[tuple[Value, ...]]",
    alias: str,
    columns: "tuple[str, ...]",
) -> str:
    """An inline constant table usable in a FROM clause, named *alias*.

    ``(VALUES ..) AS m(a, b)`` is a syntax error in SQLite, so the table is
    a ``UNION ALL`` of SELECTs whose first names the columns.
    """
    selects = []
    for i, row in enumerate(rows):
        if i == 0:
            parts = ", ".join(
                f"{quote_literal(v)} AS {quote_identifier(c)}"
                for v, c in zip(row, columns)
            )
        else:
            parts = ", ".join(quote_literal(v) for v in row)
        selects.append(f"SELECT {parts}")
    return "(" + " UNION ALL ".join(selects) + f") AS {alias}"


def function_call(name: str, args: "list[str]") -> str:
    """Render a scalar UDF call (λ application).

    The name is quoted, since it can collide with a SQLite keyword (a
    semantic function named ``add``); SQLite resolves quoted names to
    registered functions.
    """
    return f"{quote_identifier(name)}({', '.join(args)})"


#: SQLite folds the case of ASCII letters in identifiers, and only those
_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def fold_case(name: str) -> str:
    """*name* as SQLite compares identifiers: ASCII letters in lower case."""
    return name.translate(_ASCII_FOLD)


def _reserved_table(names: Iterable[str]) -> str | None:
    """Why SQLite refuses one of table *names* (its own prefix), or None."""
    for name in names:
        if fold_case(name).startswith("sqlite_"):
            return (
                f"relation name {name!r} starts with 'sqlite_', which SQLite "
                "reserves for internal use"
            )
    return None


#: names SQLite reads as a boolean: it names a CREATE TABLE AS result column
#: spelled so (in any ASCII case) ``column<N>``, so no table copy keeps one
_BOOLEAN_WORDS = frozenset({"true", "false"})


def _boolean_word(names: Iterable[str]) -> str | None:
    """One of *names* that SQLite reads as a boolean, if any."""
    for name in names:
        if len(name) in (4, 5) and fold_case(name) in _BOOLEAN_WORDS:
            return name
    return None


def _unquotable(names: Collection[str]) -> str | None:
    """Why SQLite cannot quote one of *names* as an identifier, or None."""
    # one C-level test per group for what quote_identifier refuses
    if "" in names or "\x00" in "".join(names):
        for name in names:
            try:
                quote_identifier(name)
            except SqlRenderingError as exc:
                return str(exc)
    return None


def _case_clash(names: Collection[str]) -> tuple[str, str] | None:
    """Two of *names* (all distinct) that differ only in ASCII case, if any."""
    # names apart in lower case are apart in ASCII case too
    if len(set(map(str.lower, names))) == len(names):
        return None
    seen: dict[str, str] = {}
    for name in names:
        other = seen.setdefault(fold_case(name), name)
        if other != name:
            return other, name
    return None


def _bool_tokens() -> frozenset[int]:
    """The tokens whose canonical value is a bool: at most two.

    None when ``1`` or ``0`` was interned first, since the pool conflates
    equal values; a decoded row would then hold the int too.
    """
    tokens = (POOL.get(True), POOL.get(False))
    return frozenset(
        t for t in tokens if t is not None and isinstance(VALUES[t], bool)
    )


def _holds_any(db: "Database", tokens: "set[int] | frozenset[int]") -> bool:
    """Whether a row of *db* holds one of *tokens* (free when there are none)."""
    return bool(tokens) and any(
        not all(map(tokens.isdisjoint, rel.token_rows)) for rel in db
    )


def why_unrepresentable(before: "Database", after: "Database") -> str | None:
    """Why SQLite cannot hold a source, or the names one step puts side by side.

    *before* and *after* are the database before and after the step: a
    step's output tables coexist with its input's for a moment, as when a
    partition creates its tables before it drops the one it splits.  The
    source is passed as both, and then its cells are checked too: a bool
    would round-trip as an int, and an int beyond 64 bits does not fit
    SQLite's INTEGER.  None when SQLite holds the state faithfully.
    """
    if before is after:
        if _holds_any(before, _bool_tokens()):
            return (
                "source contains boolean values and SQLite has no BOOLEAN "
                "storage class (True would round-trip as 1)"
            )
        if _holds_any(before, WIDE_INT_TOKENS):
            return (
                "source contains an int outside the signed 64-bit range "
                "of SQLite's INTEGER"
            )
    groups: list[Collection[str]] = []
    if before is after or after.relation_names != before.relation_names:
        tables = {*before.relation_names, *after.relation_names}
        reserved = _reserved_table(tables)
        if reserved is not None:
            return reserved
        groups.append(tables)
    # a relation the step left as it was brings no new column name
    unchanged = set() if before is after else set(map(id, before))
    columns = [rel.attributes for rel in after if id(rel) not in unchanged]
    for names in columns:
        word = _boolean_word(names)
        if word is not None:
            return (
                f"column name {word!r} reads as a boolean to SQLite, which "
                "renames such a column when it copies a table"
            )
    groups += columns
    for names in groups:
        unquotable = _unquotable(names)
        if unquotable is not None:
            return unquotable
        clash = _case_clash(names)
        if clash is not None:
            return (
                f"names {clash[0]!r} and {clash[1]!r} differ only in "
                "case, which SQLite folds"
            )
    return None
