"""SQL rendering for relations, databases, and TNF construction.

The paper notes (§2.2) that "the TNF of a relation can be built in SQL using
the system tables" and that TNF lets both data and metadata be handled
directly in SQL.  This module renders our in-memory values as SQL (DDL +
INSERTs) and emits the TNF-construction statement for a relation, so a
downstream user can replay TUPELO inputs inside an actual RDBMS.  The
spelling is SQLite's (:mod:`repro.relational.dialect`), the engine the
library runs its compiled mappings on; :func:`quote_identifier` and
:func:`quote_literal` are its quoting rules.
"""

from __future__ import annotations

from .database import Database
from .dialect import cast_to_text, quote_identifier, quote_literal
from .relation import Relation
from .types import Value, is_null


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


def create_table_sql(relation: Relation, typed: bool = True) -> str:
    """CREATE TABLE statement for *relation*.

    With ``typed=False`` columns carry no declared type — the loading mode
    the SQLite backend uses, since SQLite's type *affinity* would otherwise
    coerce cell values (an INTEGER in a DOUBLE PRECISION column becomes a
    REAL) and break bit-identical round-trips of mixed-type columns.
    """
    columns = []
    for attr in relation.attributes:
        ident = quote_identifier(attr)
        if typed:
            pos = relation.attribute_position(attr)
            col_type = sql_type_of([row[pos] for row in relation.rows])
            columns.append(f"  {ident} {col_type}")
        else:
            columns.append(f"  {ident}")
    body = ",\n".join(columns)
    return f"CREATE TABLE {quote_identifier(relation.name)} (\n{body}\n);"


def insert_sql(relation: Relation) -> list[str]:
    """INSERT statements for every tuple of *relation* (canonical order)."""
    cols = ", ".join(quote_identifier(a) for a in relation.attributes)
    statements = []
    for row in relation.sorted_rows():
        vals = ", ".join(quote_literal(v) for v in row)
        statements.append(
            f"INSERT INTO {quote_identifier(relation.name)} "
            f"({cols}) VALUES ({vals});"
        )
    return statements


def relation_to_sql(relation: Relation) -> str:
    """Full DDL + DML script recreating *relation*."""
    return "\n".join([create_table_sql(relation), *insert_sql(relation)])


def database_to_sql(db: Database) -> str:
    """Full DDL + DML script recreating every relation of *db*."""
    return "\n\n".join(relation_to_sql(rel) for rel in db)


def tnf_construction_sql(relation: Relation, tnf_table: str = "TNF") -> str:
    """SQL that populates a TNF table from *relation*.

    One ``INSERT ... SELECT`` per attribute, unioned — the standard
    system-table-free way to unpivot a known schema.  TIDs are synthesised
    from the row ordering for illustration; inside the library TIDs come
    from :func:`repro.relational.tnf.iter_tnf_cells`.  Engines leave
    ``ROW_NUMBER() OVER ()`` unordered, so which TID a row gets is the
    engine's choice (docs/execution.md).
    """
    selects = []
    for attr in relation.attributes:
        selects.append(
            "SELECT "
            "'t' || CAST(ROW_NUMBER() OVER () AS TEXT) AS TID, "
            f"{quote_literal(relation.name)} AS REL, "
            f"{quote_literal(attr)} AS ATT, "
            f"{cast_to_text(quote_identifier(attr))} AS VALUE "
            f"FROM {quote_identifier(relation.name)}"
        )
    union = "\nUNION ALL\n".join(selects)
    return f"CREATE TABLE {quote_identifier(tnf_table)} AS\n{union};"
