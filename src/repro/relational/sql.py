"""SQL rendering for relations, databases, and TNF construction.

The paper notes (§2.2) that "the TNF of a relation can be built in SQL using
the system tables" and that TNF lets both data and metadata be handled
directly in SQL.  This module renders our in-memory values as portable SQL
(DDL + INSERTs) and emits the TNF-construction statement for a relation, so
a downstream user can replay TUPELO inputs inside an actual RDBMS.

Rendering is dialect-parameterised (see :mod:`repro.relational.dialect`):
every function takes an optional :class:`~repro.relational.dialect
.SqlDialect` and defaults to the canonical dialect, so existing callers and
scripts are byte-identical with the historical single-flavor output.  The
module-level :func:`quote_identifier` / :func:`quote_literal` remain the
canonical spellings used throughout the compiler and tests.
"""

from __future__ import annotations

from .database import Database
from .dialect import CANONICAL_DIALECT, SqlDialect
from .relation import Relation
from .types import Value, is_null


def quote_identifier(name: str) -> str:
    """Quote an SQL identifier (double quotes, doubling embedded quotes).

    Raises :class:`~repro.errors.SqlRenderingError` for identifiers no
    engine can represent (empty, NUL bytes).
    """
    return CANONICAL_DIALECT.quote_identifier(name)


def quote_literal(value: Value) -> str:
    """Render a relational value as an SQL literal (canonical dialect)."""
    return CANONICAL_DIALECT.quote_literal(value)


def sql_type_of(values: list[Value]) -> str:
    """Pick a column type covering all non-NULL *values*."""
    kinds = {type(v) for v in values if not is_null(v)}
    if not kinds:
        return "TEXT"
    if kinds <= {bool}:
        return "BOOLEAN"
    if kinds <= {int, bool}:
        return "INTEGER"
    if kinds <= {int, float, bool}:
        return "DOUBLE PRECISION"
    return "TEXT"


def create_table_sql(
    relation: Relation,
    dialect: SqlDialect | None = None,
    typed: bool = True,
) -> str:
    """CREATE TABLE statement for *relation*.

    With ``typed=False`` columns carry no declared type — the loading mode
    the SQLite backend uses, since SQLite's type *affinity* would otherwise
    coerce cell values (an INTEGER in a DOUBLE PRECISION column becomes a
    REAL) and break bit-identical round-trips of mixed-type columns.
    """
    d = dialect or CANONICAL_DIALECT
    columns = []
    for attr in relation.attributes:
        ident = d.quote_identifier(attr)
        if typed:
            pos = relation.attribute_position(attr)
            col_type = sql_type_of([row[pos] for row in relation.rows])
            columns.append(f"  {ident} {col_type}")
        else:
            columns.append(f"  {ident}")
    body = ",\n".join(columns)
    return f"CREATE TABLE {d.quote_identifier(relation.name)} (\n{body}\n);"


def insert_sql(
    relation: Relation, dialect: SqlDialect | None = None
) -> list[str]:
    """INSERT statements for every tuple of *relation* (canonical order)."""
    d = dialect or CANONICAL_DIALECT
    cols = ", ".join(d.quote_identifier(a) for a in relation.attributes)
    statements = []
    for row in relation.sorted_rows():
        vals = ", ".join(d.quote_literal(v) for v in row)
        statements.append(
            f"INSERT INTO {d.quote_identifier(relation.name)} "
            f"({cols}) VALUES ({vals});"
        )
    return statements


def relation_to_sql(
    relation: Relation, dialect: SqlDialect | None = None
) -> str:
    """Full DDL + DML script recreating *relation*."""
    return "\n".join(
        [create_table_sql(relation, dialect), *insert_sql(relation, dialect)]
    )


def database_to_sql(db: Database, dialect: SqlDialect | None = None) -> str:
    """Full DDL + DML script recreating every relation of *db*."""
    return "\n\n".join(relation_to_sql(rel, dialect) for rel in db)


def tnf_construction_sql(
    relation: Relation,
    tnf_table: str = "TNF",
    dialect: SqlDialect | None = None,
) -> str:
    """SQL that populates a TNF table from *relation*.

    One ``INSERT ... SELECT`` per attribute, unioned — the standard
    system-table-free way to unpivot a known schema.  TIDs are synthesised
    from the row ordering for illustration; inside the library TIDs come
    from :func:`repro.relational.tnf.iter_tnf_cells`.  Engines leave
    ``ROW_NUMBER() OVER ()`` unordered, so which TID a row gets is the
    engine's choice (docs/execution.md).
    """
    d = dialect or CANONICAL_DIALECT
    rel_ident = d.quote_identifier(relation.name)
    selects = []
    for attr in relation.attributes:
        attr_ident = d.quote_identifier(attr)
        selects.append(
            "SELECT "
            f"'t' || CAST({d.row_number_expr()} AS TEXT) AS TID, "
            f"{d.quote_literal(relation.name)} AS REL, "
            f"{d.quote_literal(attr)} AS ATT, "
            f"{d.cast_to_text(attr_ident)} AS VALUE "
            f"FROM {rel_ident}"
        )
    union = "\nUNION ALL\n".join(selects)
    return (
        f"CREATE TABLE {d.quote_identifier(tnf_table)} AS\n{union};"
    )
