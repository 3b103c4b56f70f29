"""Compile mapping expressions to SQL scripts.

TUPELO's output is an executable mapping expression; this module renders one
as a portable SQL script so it can be replayed inside an RDBMS, as the paper
envisions for TNF-based interoperation (§2.2).

Promote and partition create columns and tables whose *names come from
data*, so the emitted SQL is necessarily instance-directed: the compiler
executes the pipeline on the provided source instance up to and including
the last of those operators and materialises the dynamic names it observes.
Every other operator's SQL reads at most the relation's attribute list, so
the rest of the pipeline replays on a rows-free copy of the schema, which
still runs each operator's checks.  The script is annotated so a reader can
see which statements are instance-directed.  ``merge`` compiles to a
GROUP-BY/MAX coalescing query, the standard SQL rendering of the
Wyss–Robertson merge when each group holds at most one non-NULL value per
column (as after Example 2's promote and drops).

Emission is split from rendering: this module decides the *statement
sequence* while a :class:`~repro.relational.dialect.SqlDialect` decides how
identifiers, literals, casts, and duplicate handling are spelled for a
concrete engine.  The default dialect reproduces the historical canonical
output byte for byte; bag-semantics dialects (sqlite, duckdb) re-create
tables with ``SELECT DISTINCT`` and compile column drops as DISTINCT
re-creations so executed results stay bit-identical with the in-memory
algebra.  :func:`compile_script` returns a :class:`SqlScript` whose
statement list backends execute one at a time (polling deadline/cancel
between statements); :func:`compile_expression` keeps the annotated-text
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import OperatorApplicationError
from ..relational.database import Database
from ..relational.dialect import CANONICAL_DIALECT, SqlDialect
from ..relational.intern import TEXTS, VALUES
from ..relational.relation import Relation
from ..relational.types import Value, is_null
from .base import Operator
from .combine import CartesianProduct, Merge
from .dynamic import DEMOTE_ATT_ATTR, DEMOTE_REL_ATTR, Demote, Dereference, Partition, Promote
from .expression import MappingExpression
from .renames import RenameAttribute, RenameRelation
from .semantic import ApplyFunction
from .structure import DropAttribute, Select

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..semantics.functions import FunctionRegistry


@dataclass(frozen=True)
class SqlScript:
    """A compiled pipeline: executable statements plus the annotated text.

    Attributes:
        dialect: name of the dialect the script was rendered for.
        statements: executable statements only (no comments), one entry
            per statement — the granularity at which backends poll the
            deadline/cancel contract.
        text: the full annotated script (step markers + instance-directed
            commentary), suitable for display and files.
    """

    dialect: str
    statements: tuple[str, ...]
    text: str

    @property
    def statement_count(self) -> int:
        """Number of executable statements."""
        return len(self.statements)

    def __str__(self) -> str:
        return self.text


def is_sql_comment(line: str) -> bool:
    """Whether an emitted line is commentary rather than a statement."""
    return line.lstrip().startswith("--") or not line.strip()


def _recreate(
    relation: str, select_body: str, dialect: SqlDialect
) -> list[str]:
    """CREATE-new / DROP-old / RENAME dance replacing *relation* in place."""
    rel = dialect.quote_identifier(relation)
    tmp = dialect.quote_identifier(relation + "__tupelo_tmp")
    return [
        f"CREATE TABLE {tmp} AS {select_body};",
        f"DROP TABLE {rel};",
        f"ALTER TABLE {tmp} RENAME TO {rel};",
    ]


#: operators whose SQL names come from cell values; every other operator's
#: SQL reads at most the relation's attribute list
DATA_READING_OPERATORS: tuple[type[Operator], ...] = (Promote, Partition)


def compile_operator(
    op: Operator, db: Database, dialect: SqlDialect | None = None
) -> list[str]:
    """SQL statements implementing *op* on a database in the state *db*.

    *db* is the database **before** the operator runs; the
    :data:`DATA_READING_OPERATORS` read its rows to materialise
    data-dependent names, the rest only its schema.  Comment lines
    (``-- ...``) may be interleaved; filter with :func:`is_sql_comment`
    when executing.
    """
    d = dialect or CANONICAL_DIALECT
    if isinstance(op, RenameAttribute):
        return [
            f"ALTER TABLE {d.quote_identifier(op.relation)} "
            f"RENAME COLUMN {d.quote_identifier(op.old)} TO {d.quote_identifier(op.new)};"
        ]
    if isinstance(op, RenameRelation):
        return [
            f"ALTER TABLE {d.quote_identifier(op.old)} "
            f"RENAME TO {d.quote_identifier(op.new)};"
        ]
    if isinstance(op, DropAttribute):
        return _compile_drop(op, db, d)
    if isinstance(op, Select):
        return [
            f"DELETE FROM {d.quote_identifier(op.relation)} "
            f"WHERE {d.quote_identifier(op.attribute)} IS NULL "
            f"OR {d.quote_identifier(op.attribute)} <> {d.quote_literal(op.value)};"
            if not is_null(op.value)
            else f"DELETE FROM {d.quote_identifier(op.relation)} "
            f"WHERE {d.quote_identifier(op.attribute)} IS NOT NULL;"
        ]
    if isinstance(op, Promote):
        return _compile_promote(op, db, d)
    if isinstance(op, Demote):
        return _compile_demote(op, db, d)
    if isinstance(op, Dereference):
        return _compile_dereference(op, db, d)
    if isinstance(op, Partition):
        return _compile_partition(op, db, d)
    if isinstance(op, Merge):
        return _compile_merge(op, db, d)
    if isinstance(op, CartesianProduct):
        return _compile_product(op, db, d)
    if isinstance(op, ApplyFunction):
        return _compile_apply(op, d)
    raise OperatorApplicationError(f"no SQL compilation for operator {op!r}")


def _compile_drop(op: DropAttribute, db: Database, d: SqlDialect) -> list[str]:
    if d.drop_column_in_place():
        return [
            f"ALTER TABLE {d.quote_identifier(op.relation)} "
            f"DROP COLUMN {d.quote_identifier(op.attribute)};"
        ]
    # Bag-semantics engines: an in-place drop can expose duplicate rows the
    # algebra would collapse, so re-create with SELECT DISTINCT instead.
    rel = db.relation(op.relation)
    remaining = [a for a in rel.attributes if a != op.attribute]
    if not remaining:
        raise OperatorApplicationError(
            f"drop: cannot drop the last attribute of {op.relation!r}"
        )
    cols = ", ".join(d.quote_identifier(a) for a in remaining)
    body = (
        f"SELECT {d.select_modifier()}{cols} "
        f"FROM {d.quote_identifier(op.relation)}"
    )
    return [
        "-- drop: re-created with DISTINCT to preserve set semantics on a "
        "bag-semantics engine",
        *_recreate(op.relation, body, d),
    ]


def _values_by_name(rel: Relation, attr: str) -> dict[str, list[Value]]:
    """Column *attr*'s distinct values grouped by the name each induces.

    The algebra names a promoted column or a partition by a value's text, so
    ``"1"`` and ``1`` induce one name; NULL induces the empty name.  Names
    and values come in the column's sorted-row order.
    """
    pos = rel.attribute_position(attr)
    groups: dict[str, list[Value]] = {}
    seen: set[int] = set()
    for trow in rel.sorted_token_rows():
        token = trow[pos]
        if token not in seen:
            seen.add(token)
            groups.setdefault(TEXTS[token], []).append(VALUES[token])
    return groups


def _equals_any(column: str, values: list[Value], d: SqlDialect) -> str:
    """SQL matching *column* against any of *values*."""
    tests = [f"{column} = {d.quote_literal(value)}" for value in values]
    return tests[0] if len(tests) == 1 else f"({' OR '.join(tests)})"


def _compile_promote(op: Promote, db: Database, d: SqlDialect) -> list[str]:
    rel = db.relation(op.relation)
    key = d.quote_identifier(op.name_attr)
    cases = ", ".join(
        f"CASE WHEN {_equals_any(key, values, d)} "
        f"THEN {d.quote_identifier(op.value_attr)} END AS {d.quote_identifier(name)}"
        for name, values in _values_by_name(rel, op.name_attr).items()
        if name  # NULL and the empty string name no column
    )
    select_list = f"*, {cases}" if cases else "*"
    body = (
        f"SELECT {d.select_modifier()}{select_list} "
        f"FROM {d.quote_identifier(op.relation)}"
    )
    return [
        f"-- promote: column names below come from the data of "
        f"{op.name_attr!r} (instance-directed)",
        *_recreate(op.relation, body, d),
    ]


def _compile_demote(op: Demote, db: Database, d: SqlDialect) -> list[str]:
    rel = db.relation(op.relation)
    meta = d.values_table(
        [(rel.name, attr) for attr in rel.attributes],
        "__meta",
        (DEMOTE_REL_ATTR, DEMOTE_ATT_ATTR),
    )
    body = (
        f"SELECT {d.select_modifier()}{d.quote_identifier(op.relation)}.*, __meta.* "
        f"FROM {d.quote_identifier(op.relation)} CROSS JOIN {meta}"
    )
    return _recreate(op.relation, body, d)


def _compile_dereference(op: Dereference, db: Database, d: SqlDialect) -> list[str]:
    # The pointer cell is read as the *name* of an attribute (its canonical
    # text), but the dereferenced cell keeps its raw typed value — the
    # algebra copies t[t[A]] verbatim, so casting it would break the
    # cross-backend equivalence oracle on non-string columns.
    rel = db.relation(op.relation)
    pointer = d.cast_to_text(d.quote_identifier(op.pointer_attr))
    whens = " ".join(
        f"WHEN {pointer} = {d.quote_literal(attr)} "
        f"THEN {d.quote_identifier(attr)}"
        for attr in rel.attributes
    )
    body = (
        f"SELECT {d.select_modifier()}*, CASE {whens} END "
        f"AS {d.quote_identifier(op.new_attr)} "
        f"FROM {d.quote_identifier(op.relation)}"
    )
    return _recreate(op.relation, body, d)


def _compile_partition(op: Partition, db: Database, d: SqlDialect) -> list[str]:
    groups = _values_by_name(db.relation(op.relation), op.attribute)
    statements = [
        f"-- partition: table names below come from the data of "
        f"{op.attribute!r} (instance-directed)"
    ]
    # The algebra drops the input before naming the outputs, so a partition
    # may reuse the input's name; SQL must move the input aside first.
    input_table = op.relation
    if op.relation in groups:
        input_table = op.relation + "__tupelo_tmp"
        statements.append(
            f"ALTER TABLE {d.quote_identifier(op.relation)} "
            f"RENAME TO {d.quote_identifier(input_table)};"
        )
    key = d.quote_identifier(op.attribute)
    for table, values in groups.items():
        statements.append(
            f"CREATE TABLE {d.quote_identifier(table)} AS "
            f"SELECT {d.select_modifier()}* FROM {d.quote_identifier(input_table)} "
            f"WHERE {_equals_any(key, values, d)};"
        )
    statements.append(f"DROP TABLE {d.quote_identifier(input_table)};")
    return statements


def _compile_merge(op: Merge, db: Database, d: SqlDialect) -> list[str]:
    # NULL never equals NULL in the merge semantics, so NULL-keyed tuples do
    # not participate: GROUP BY the non-NULL keys and UNION the NULL-keyed
    # rows back in untouched (SQL's GROUP BY would wrongly pool them).
    rel = db.relation(op.relation)
    key = d.quote_identifier(op.attribute)
    others = [a for a in rel.attributes if a != op.attribute]
    aggregates = [
        f"MAX({d.quote_identifier(a)}) AS {d.quote_identifier(a)}" for a in others
    ]
    passthrough_cols = ", ".join(
        [key, *(d.quote_identifier(a) for a in others)]
    )
    grouped = (
        f"SELECT {', '.join([key, *aggregates])} "
        f"FROM {d.quote_identifier(op.relation)} "
        f"WHERE {key} IS NOT NULL "
        f"GROUP BY {key}"
    )
    passthrough = (
        f"SELECT {d.select_modifier()}{passthrough_cols} "
        f"FROM {d.quote_identifier(op.relation)} "
        f"WHERE {key} IS NULL"
    )
    body = f"{grouped} UNION ALL {passthrough}"
    return [
        "-- merge: GROUP BY/MAX coalescing assumes one non-NULL value per "
        "column per group (guaranteed after promote); NULL-keyed rows pass "
        "through unmerged",
        *_recreate(op.relation, body, d),
    ]


def _compile_product(op: CartesianProduct, db: Database, d: SqlDialect) -> list[str]:
    left = db.relation(op.left)
    right = db.relation(op.right)
    clashes = left.attribute_set & right.attribute_set

    def select_list(rel, alias: str) -> str:
        parts = []
        for attr in rel.attributes:
            name = f"{rel.name}.{attr}" if attr in clashes else attr
            parts.append(
                f"{alias}.{d.quote_identifier(attr)} AS {d.quote_identifier(name)}"
            )
        return ", ".join(parts)

    body = (
        f"SELECT {d.select_modifier()}{select_list(left, 'l')}, {select_list(right, 'r')} "
        f"FROM {d.quote_identifier(op.left)} l "
        f"CROSS JOIN {d.quote_identifier(op.right)} r"
    )
    return [f"CREATE TABLE {d.quote_identifier(op.result_name)} AS {body};"]


def _compile_apply(op: ApplyFunction, d: SqlDialect) -> list[str]:
    call = d.function_call(
        op.function, [d.quote_identifier(a) for a in op.inputs]
    )
    body = (
        f"SELECT {d.select_modifier()}*, {call} "
        f"AS {d.quote_identifier(op.output)} "
        f"FROM {d.quote_identifier(op.relation)}"
    )
    return [
        f"-- apply: {op.function!r} must be available as a UDF / stored procedure",
        *_recreate(op.relation, body, d),
    ]


def _rows_free(db: Database) -> Database:
    """*db*'s relation names and attributes, without a single row."""
    empty: frozenset = frozenset()
    return Database(
        Relation._from_token_rows(rel.name, rel.attributes, empty) for rel in db
    )


def compile_script(
    expression: MappingExpression,
    source: Database,
    registry: "FunctionRegistry | None" = None,
    dialect: SqlDialect | None = None,
) -> SqlScript:
    """Compile a whole pipeline to a :class:`SqlScript`, step by step.

    The pipeline is executed on *source* up to and including its last
    :data:`DATA_READING_OPERATORS` step, so those steps can materialise
    the names they create, and on a rows-free copy of the schema after it.
    Every step's checks run either way, so schema faults (a missing
    relation or attribute, a name collision, an unknown function, a wrong
    arity) raise here; a value fault in a later λ surfaces in the engine.
    """
    d = dialect or CANONICAL_DIALECT
    lines: list[str] = ["-- TUPELO mapping expression compiled to SQL"]
    statements: list[str] = []
    last_data_step = max(
        (
            i
            for i, op in enumerate(expression, start=1)
            if isinstance(op, DATA_READING_OPERATORS)
        ),
        default=0,
    )
    db = source if last_data_step else _rows_free(source)
    for i, op in enumerate(expression, start=1):
        lines.append(f"-- step {i}: {op}")
        emitted = compile_operator(op, db, d)
        lines.extend(emitted)
        statements.extend(s for s in emitted if not is_sql_comment(s))
        db = op.apply(db, registry)
        if i == last_data_step:
            db = _rows_free(db)
        lines.append("")
    text = "\n".join(lines).rstrip() + "\n"
    return SqlScript(dialect=d.name, statements=tuple(statements), text=text)


def compile_expression(
    expression: MappingExpression,
    source: Database,
    registry: "FunctionRegistry | None" = None,
    dialect: SqlDialect | None = None,
) -> str:
    """Compile a whole pipeline to an annotated SQL script (text form)."""
    return compile_script(expression, source, registry, dialect).text
