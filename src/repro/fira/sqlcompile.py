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

Consecutive steps that rewrite one relation row by row (λ applications,
promotes, dereferences, drops on dialects that re-create a table to drop a
column, and the attribute renames between them) compile as one run: a
single ``CREATE TABLE … AS SELECT`` over a column-expression list, so the
table is copied once per run instead of once per step (:class:`RowWiseRun`).

Emission is split from rendering: this module decides the *statement
sequence* while a :class:`~repro.relational.dialect.SqlDialect` decides how
identifiers, literals, casts, and duplicate handling are spelled for a
concrete engine.  The default dialect reproduces the historical canonical
output byte for byte; the bag-semantics sqlite dialect re-creates
tables with ``SELECT DISTINCT`` and compiles column drops as DISTINCT
re-creations so executed results stay bit-identical with the in-memory
algebra.  :func:`compile_script` returns a :class:`SqlScript` whose
statement list backends execute one at a time (polling deadline/cancel
between statements); :func:`compile_expression` keeps the annotated-text
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import BackendUnsupportedError, OperatorApplicationError
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


def is_row_wise(op: Operator, dialect: SqlDialect) -> bool:
    """Whether *op* rewrites its relation row by row under *dialect*.

    A drop does so only on dialects that re-create a table to drop a column.
    """
    return isinstance(op, (RenameAttribute, ApplyFunction, Promote, Dereference)) or (
        isinstance(op, DropAttribute) and not dialect.drop_column_in_place()
    )


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
    if is_row_wise(op, d):
        run = RowWiseRun(op.relation, db, d)
        run.add(op, db, [])
        return run.lines()
    if isinstance(op, RenameRelation):
        return [
            f"ALTER TABLE {d.quote_identifier(op.old)} "
            f"RENAME TO {d.quote_identifier(op.new)};"
        ]
    if isinstance(op, DropAttribute):
        return [
            f"ALTER TABLE {d.quote_identifier(op.relation)} "
            f"DROP COLUMN {d.quote_identifier(op.attribute)};"
        ]
    if isinstance(op, Select):
        return [
            f"DELETE FROM {d.quote_identifier(op.relation)} "
            f"WHERE {d.quote_identifier(op.attribute)} IS NULL "
            f"OR {d.quote_identifier(op.attribute)} <> {d.quote_literal(op.value)};"
            if not is_null(op.value)
            else f"DELETE FROM {d.quote_identifier(op.relation)} "
            f"WHERE {d.quote_identifier(op.attribute)} IS NOT NULL;"
        ]
    if isinstance(op, Demote):
        return _compile_demote(op, db, d)
    if isinstance(op, Partition):
        return _compile_partition(op, db, d)
    if isinstance(op, Merge):
        return _compile_merge(op, db, d)
    if isinstance(op, CartesianProduct):
        return _compile_product(op, db, d)
    raise OperatorApplicationError(f"no SQL compilation for operator {op!r}")


class RowWiseRun:
    """Consecutive row-wise steps on one relation, compiled as one table copy.

    The run's SELECT reads the table as its first step found it in
    ``start``, the database before that step.  ``aliases`` maps the current name of
    each renamed column of that table to the column it reads, ``dropped``
    holds the columns the run dropped, and ``computed`` the SQL of the
    columns the run's steps added; while no column is renamed or dropped,
    ``*`` lists the table's columns.  No later step of the run reads or
    drops a computed column (:meth:`takes`), so each expression is
    evaluated exactly once.  A run of renames alone keeps their ``ALTER
    TABLE`` statements, which copy no rows.
    """

    def __init__(self, relation: str, start: Database, dialect: SqlDialect) -> None:
        self.relation = relation
        self.start = start
        self.dialect = dialect
        #: per step: its comment lines, and a rename's own statement
        self.steps: list[tuple[list[str], str | None]] = []
        self.aliases: dict[str, str] = {}
        self.dropped: set[str] = set()
        self.computed: dict[str, str] = {}

    def takes(self, op: Operator) -> bool:
        """Whether row-wise *op* continues this run (see :func:`is_row_wise`)."""
        if op.relation != self.relation:
            return False
        if isinstance(op, RenameAttribute):
            return True  # a rename only re-aliases a column
        if isinstance(op, ApplyFunction):
            return self.computed.keys().isdisjoint(op.inputs)
        if isinstance(op, Promote):
            return self.computed.keys().isdisjoint((op.name_attr, op.value_attr))
        if isinstance(op, Dereference):  # its CASE reads every column
            return not self.computed
        return op.attribute not in self.computed  # a drop

    def add(self, op: Operator, db: Database, notes: list[str]) -> None:
        """Add row-wise *op*, to run on a database in the state *db*.

        *notes* opens the step's text; the step's comments follow.  Raises
        what compiling *op* on its own raises.
        """
        d = self.dialect
        alter = None
        if isinstance(op, RenameAttribute):
            alter = (
                f"ALTER TABLE {d.quote_identifier(op.relation)} RENAME COLUMN "
                f"{d.quote_identifier(op.old)} TO {d.quote_identifier(op.new)};"
            )
            if op.old in self.computed:
                self.computed = {
                    (op.new if name == op.old else name): sql
                    for name, sql in self.computed.items()
                }
            else:
                source = self.aliases.pop(op.old, op.old)
                if source != op.new:
                    self.aliases[op.new] = source
        elif isinstance(op, ApplyFunction):
            notes.append(
                f"-- apply: {op.function!r} must be available as a UDF / stored procedure"
            )
            call = d.function_call(op.function, [self._read(a) for a in op.inputs])
            self._compute(op.output, call)
        elif isinstance(op, Promote):
            notes.append(
                f"-- promote: column names below come from the data of "
                f"{op.name_attr!r} (instance-directed)"
            )
            rel = db.relation(op.relation)
            key = self._read(op.name_attr)
            for name, values in _values_by_name(rel, op.name_attr).items():
                if name:  # NULL and the empty string name no column
                    self._compute(
                        name,
                        f"CASE WHEN {_equals_any(key, values, d)} "
                        f"THEN {self._read(op.value_attr)} END",
                    )
        elif isinstance(op, Dereference):
            # The pointer cell is read as the *name* of an attribute (its
            # canonical text), but the dereferenced cell keeps its raw typed
            # value — the algebra copies t[t[A]] verbatim, so casting it
            # would break the cross-backend equivalence oracle on
            # non-string columns.
            rel = db.relation(op.relation)
            pointer = d.cast_to_text(self._read(op.pointer_attr))
            whens = " ".join(
                f"WHEN {pointer} = {d.quote_literal(attr)} THEN {self._read(attr)}"
                for attr in rel.attributes
            )
            self._compute(op.new_attr, f"CASE {whens} END")
        else:
            # Bag-semantics engines: an in-place drop can expose duplicate
            # rows the algebra would collapse, so re-create with SELECT
            # DISTINCT instead.
            if db.relation(op.relation).attributes == (op.attribute,):
                raise OperatorApplicationError(
                    f"drop: cannot drop the last attribute of {op.relation!r}"
                )
            notes.append(
                "-- drop: re-created with DISTINCT to preserve set semantics "
                "on a bag-semantics engine"
            )
            self.dropped.add(self.aliases.pop(op.attribute, op.attribute))
        self.steps.append((notes, alter))

    def _read(self, attr: str) -> str:
        """SQL reading attribute *attr* from the table the run found."""
        return self.dialect.quote_identifier(self.aliases.get(attr, attr))

    def _compute(self, name: str, expression: str) -> None:
        self.dialect.quote_identifier(name)  # an unquotable name fails here
        self.computed[name] = expression

    def lines(self) -> list[str]:
        """The run's annotated text; its statements are the lines that are
        not comments (:func:`is_sql_comment`)."""
        if all(alter is not None for _, alter in self.steps):  # renames alone
            text = [
                line
                for notes, alter in self.steps
                for line in (*notes, alter, "")
            ]
            return text[:-1]
        q = self.dialect.quote_identifier
        columns = ["*"]
        if self.aliases or self.dropped:
            names = {source: name for name, source in self.aliases.items()}
            columns = [
                q(a) if names.get(a, a) == a else f"{q(a)} AS {q(names[a])}"
                for a in self.start.relation(self.relation).attributes
                if a not in self.dropped
            ]
        columns += [f"{sql} AS {q(name)}" for name, sql in self.computed.items()]
        body = (
            f"SELECT {self.dialect.select_modifier()}{', '.join(columns)} "
            f"FROM {q(self.relation)}"
        )
        text = [line for notes, _ in self.steps for line in notes]
        if len(self.steps) > 1:
            text.append(
                f"-- one copy of {self.relation!r} runs the "
                f"{len(self.steps)} steps above"
            )
        return [*text, *_recreate(self.relation, body, self.dialect)]


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
        "-- merge: GROUP BY/MAX coalescing is exact only when each key group "
        "holds at most one non-NULL value per column; NULL-keyed rows pass "
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
    Each maximal run of row-wise steps on one relation compiles as one
    :class:`RowWiseRun`.  A dialect whose engine cannot hold the names a
    step puts side by side declines the pipeline here
    (:meth:`~repro.relational.dialect.SqlDialect.why_unrepresentable`).

    Raises:
        BackendUnsupportedError: when the dialect declines a name.
    """
    d = dialect or CANONICAL_DIALECT
    lines: list[str] = ["-- TUPELO mapping expression compiled to SQL"]
    last_data_step = max(
        (
            i
            for i, op in enumerate(expression, start=1)
            if isinstance(op, DATA_READING_OPERATORS)
        ),
        default=0,
    )
    check_names(d, source, source)
    db = source if last_data_step else _rows_free(source)
    run: RowWiseRun | None = None
    for i, op in enumerate(expression, start=1):
        notes = [f"-- step {i}: {op}"]
        row_wise = is_row_wise(op, d)
        if run is not None and not (row_wise and run.takes(op)):
            lines += [*run.lines(), ""]
            run = None
        if row_wise:
            run = run or RowWiseRun(op.relation, db, d)
            run.add(op, db, notes)
        else:
            lines += [*notes, *compile_operator(op, db, d), ""]
        before, db = db, op.apply(db, registry)
        check_names(d, before, db)
        if i == last_data_step:
            db = _rows_free(db)
    if run is not None:
        lines += run.lines()
    text = "\n".join(lines).rstrip() + "\n"
    statements = tuple(line for line in lines if not is_sql_comment(line))
    return SqlScript(dialect=d.name, statements=statements, text=text)


def check_names(dialect: SqlDialect, before: Database, after: Database) -> None:
    """Decline a step whose names *dialect*'s engine cannot hold side by side.

    Raises:
        BackendUnsupportedError: naming the dialect and the reason.
    """
    reason = dialect.why_unrepresentable(before, after)
    if reason is not None:
        raise BackendUnsupportedError(dialect.name, reason)


def compile_expression(
    expression: MappingExpression,
    source: Database,
    registry: "FunctionRegistry | None" = None,
    dialect: SqlDialect | None = None,
) -> str:
    """Compile a whole pipeline to an annotated SQL script (text form)."""
    return compile_script(expression, source, registry, dialect).text
