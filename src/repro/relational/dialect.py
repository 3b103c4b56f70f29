"""SQL dialects: per-engine rendering rules for one shared statement shape.

The FIRA → SQL compiler (:mod:`repro.fira.sqlcompile`) emits one logical
statement sequence per pipeline; a :class:`SqlDialect` decides how that
sequence is *rendered* for a concrete engine — identifier and literal
quoting, ``CAST``-to-text, duplicate-row handling, and whether a column can
be dropped in place.  Two dialects ship with the library:

* :class:`CanonicalDialect` — the paper's relational model written as SQL:
  *set semantics* (duplicate rows collapse) and a canonical
  ``CAST(x AS TEXT)`` that mirrors
  :func:`repro.relational.types.value_to_text`.  It is what
  :func:`~repro.fira.sqlcompile.compile_expression`, ``repro discover
  --show-sql`` and :mod:`repro.relational.sql` print; no engine in the
  library runs it.
* :class:`SqliteDialect` — stdlib ``sqlite3``, the engine
  :func:`~repro.backends.executor.execute_mapping` runs.  SQLite tables
  are bags, so the dialect renders re-creations with ``SELECT DISTINCT``
  and compiles column drops as DISTINCT re-creations; its ``CAST`` is
  wrapped in a ``typeof`` guard so integral REALs render as canonical
  integers.  SQLite has no BOOLEAN storage class, so boolean literals are
  rejected (the sqlite backend declines bool-carrying instances up
  front).  It folds
  identifier case, reserves ``sqlite_`` table names and renames columns
  called ``TRUE`` or ``FALSE`` when it copies a table, so the dialect
  declines a step whose names it cannot hold.

Both dialects quote identifiers identically (double quotes, doubling
embedded quotes) and reject identifiers/literals no engine can represent:
empty identifiers, NUL bytes, and non-finite floats raise
:class:`~repro.errors.SqlRenderingError` instead of emitting SQL that would
fail (or worse, silently change meaning) downstream.
"""

from __future__ import annotations

import math
import string
from typing import TYPE_CHECKING, Collection, Iterable

from ..errors import SqlRenderingError
from .types import Value, is_null

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .database import Database


def render_identifier(name: str) -> str:
    """Quote *name* as a SQL identifier, validating it is representable.

    Double-quote delimiting with embedded quotes doubled — the ANSI form
    every supported engine accepts, including non-ASCII identifiers (data
    values promoted to column or relation names may be arbitrary text).

    Raises:
        SqlRenderingError: for an empty identifier or one containing NUL
            (no engine can parse either from SQL text).
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


def render_string_literal(value: str) -> str:
    """Quote *value* as a SQL string literal (single quotes doubled)."""
    if "\x00" in value:
        raise SqlRenderingError(
            f"SQL string literal {value!r} contains a NUL byte"
        )
    return "'" + value.replace("'", "''") + "'"


def render_number_literal(value: int | float) -> str:
    """Render a numeric literal, rejecting non-finite floats.

    ``repr`` round-trips both ints and floats exactly; ``inf``/``nan``
    have no portable SQL spelling, so they fail loudly here rather than
    emitting an identifier-lookalike the engine would misparse.
    """
    if isinstance(value, float) and not math.isfinite(value):
        raise SqlRenderingError(
            f"cannot render non-finite float {value!r} as a SQL literal"
        )
    return repr(value)


class SqlDialect:
    """Rendering rules for one SQL engine.

    Attributes:
        name: the engine's name, stamped on compiled scripts.
        set_semantics: True when the engine natively collapses duplicate
            rows (the paper's relational model).  Bag-semantics engines get
            ``SELECT DISTINCT`` re-creations and DISTINCT column drops so
            executed scripts stay bit-identical with the in-memory algebra.
        supports_boolean: False when the engine has no boolean storage
            class; boolean literals then raise :class:`SqlRenderingError`.
    """

    name = "ansi"
    set_semantics = False
    supports_boolean = True

    def quote_identifier(self, name: str) -> str:
        """Quote an SQL identifier (shared across all dialects)."""
        return render_identifier(name)

    def quote_literal(self, value: Value) -> str:
        """Render a relational value as an SQL literal."""
        if is_null(value):
            return "NULL"
        if isinstance(value, bool):
            return self.bool_literal(value)
        if isinstance(value, (int, float)):
            return render_number_literal(value)
        return render_string_literal(str(value))

    def bool_literal(self, value: bool) -> str:
        """Render a boolean literal (dialects without BOOLEAN reject it)."""
        if not self.supports_boolean:
            raise SqlRenderingError(
                f"dialect {self.name!r} has no boolean literal rendering "
                "(the engine lacks a BOOLEAN storage class)"
            )
        return "TRUE" if value else "FALSE"

    def cast_to_text(self, expr_sql: str) -> str:
        """SQL computing the canonical text of *expr_sql*.

        The canonical rendering is :func:`repro.relational.types
        .value_to_text`: integral floats render without the trailing
        ``.0``.  Engines whose plain ``CAST`` diverges wrap it in a type
        guard (see :class:`SqliteDialect`).
        """
        return f"CAST({expr_sql} AS TEXT)"

    def select_modifier(self) -> str:
        """Prefix for re-creation SELECT bodies (``DISTINCT `` on bags)."""
        return "" if self.set_semantics else "DISTINCT "

    def drop_column_in_place(self) -> bool:
        """Whether ``ALTER TABLE .. DROP COLUMN`` preserves set semantics.

        On a bag-semantics engine an in-place drop can leave duplicate
        rows that the algebra would collapse, so the compiler re-creates
        the table with ``SELECT DISTINCT`` instead.
        """
        return self.set_semantics

    def why_unrepresentable(
        self, before: "Database", after: "Database"
    ) -> str | None:
        """Why the engine cannot hold the names one step puts side by side.

        *before* and *after* are the database before and after the step
        (the source twice, for the source itself): a step's output tables
        coexist with its input's for a moment, as when a partition creates
        its tables before it drops the one it splits.  None when the engine
        holds every name apart, as the canonical dialect does.
        """
        return None

    def row_number_expr(self) -> str:
        """The row-numbering expression used by TNF construction."""
        return "ROW_NUMBER() OVER ()"

    def function_call(self, name: str, args: "list[str]") -> str:
        """Render a scalar UDF call (λ application)."""
        return f"{name}({', '.join(args)})"

    def values_table(
        self,
        rows: "list[tuple[Value, ...]]",
        alias: str,
        columns: "tuple[str, ...]",
    ) -> str:
        """An inline constant table usable in a FROM clause.

        The ANSI form is ``(VALUES (..), (..)) AS alias(c1, c2)``; engines
        that cannot name the columns of a FROM-clause alias (SQLite)
        override this with an equivalent ``UNION ALL`` of SELECTs.
        """
        values = ", ".join(
            "(" + ", ".join(self.quote_literal(v) for v in row) + ")"
            for row in rows
        )
        cols = ", ".join(self.quote_identifier(c) for c in columns)
        return f"(VALUES {values}) AS {alias}({cols})"

    def __repr__(self) -> str:
        return f"<SqlDialect {self.name}>"


class CanonicalDialect(SqlDialect):
    """The paper's relational model as SQL text.

    Set semantics, two-valued NULL comparisons, and a ``CAST(x AS TEXT)``
    that matches the library's canonical text rendering: the identity
    rendering the compiler emits when no engine is named.
    """

    name = "canonical"
    set_semantics = True
    supports_boolean = True


#: SQLite folds the case of ASCII letters in identifiers, and only those
_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def sqlite_reserved_table(names: Iterable[str]) -> str | None:
    """Why SQLite refuses one of table *names* (its own prefix), or None."""
    for name in names:
        if name.translate(_ASCII_FOLD).startswith("sqlite_"):
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
        if len(name) in (4, 5) and name.translate(_ASCII_FOLD) in _BOOLEAN_WORDS:
            return name
    return None


def _case_clash(names: Collection[str]) -> tuple[str, str] | None:
    """Two of *names* (all distinct) that differ only in ASCII case, if any."""
    # names apart in lower case are apart in ASCII case too
    if len(set(map(str.lower, names))) == len(names):
        return None
    seen: dict[str, str] = {}
    for name in names:
        other = seen.setdefault(name.translate(_ASCII_FOLD), name)
        if other != name:
            return other, name
    return None


class SqliteDialect(SqlDialect):
    """SQLite (stdlib ``sqlite3``): bag semantics, no BOOLEAN storage class.

    ``CAST(2.0 AS TEXT)`` is ``'2.0'`` in SQLite but the canonical text is
    ``'2'``; the ``typeof``-guarded CASE below converts integral REALs
    through INTEGER first so dereference over float columns stays
    bit-identical with the in-memory algebra.  SQLite folds the case of
    identifiers, so two names differing only in case are one table or one
    column to it (a promote over ``A`` and ``a`` returns a column ``a:1``),
    it refuses tables named ``sqlite_…``, and a table copy renames a column
    called ``TRUE`` or ``FALSE`` (in any case) ``column<N>``; such steps are
    declined.
    """

    name = "sqlite"
    set_semantics = False
    supports_boolean = False

    def why_unrepresentable(
        self, before: "Database", after: "Database"
    ) -> str | None:
        groups: list[Collection[str]] = []
        if before is after or after.relation_names != before.relation_names:
            tables = {*before.relation_names, *after.relation_names}
            reserved = sqlite_reserved_table(tables)
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
            clash = _case_clash(names)
            if clash is not None:
                return (
                    f"names {clash[0]!r} and {clash[1]!r} differ only in "
                    "case, which SQLite folds"
                )
        return None

    def values_table(
        self,
        rows: "list[tuple[Value, ...]]",
        alias: str,
        columns: "tuple[str, ...]",
    ) -> str:
        # SQLite cannot name the columns of a FROM-clause alias
        # ("(VALUES ..) AS m(a, b)" is a syntax error), so spell the same
        # constant table as a UNION ALL of SELECTs with aliased columns.
        selects = []
        for i, row in enumerate(rows):
            if i == 0:
                parts = ", ".join(
                    f"{self.quote_literal(v)} AS {self.quote_identifier(c)}"
                    for v, c in zip(row, columns)
                )
            else:
                parts = ", ".join(self.quote_literal(v) for v in row)
            selects.append(f"SELECT {parts}")
        return "(" + " UNION ALL ".join(selects) + f") AS {alias}"

    def function_call(self, name: str, args: "list[str]") -> str:
        # UDF names can collide with SQLite keywords (e.g. a semantic
        # function named "add"); quoting the name keeps the call parseable
        # and SQLite resolves quoted names to registered functions.
        return f"{self.quote_identifier(name)}({', '.join(args)})"

    def cast_to_text(self, expr_sql: str) -> str:
        return (
            f"CASE WHEN typeof({expr_sql}) = 'real' "
            f"AND {expr_sql} = CAST({expr_sql} AS INTEGER) "
            f"THEN CAST(CAST({expr_sql} AS INTEGER) AS TEXT) "
            f"ELSE CAST({expr_sql} AS TEXT) END"
        )


#: the canonical dialect — what the compiler emits when none is given,
#: identical to the historical single-flavor output
CANONICAL_DIALECT = CanonicalDialect()
