"""Compile mapping expressions to SQLite scripts.

TUPELO's output is an executable mapping expression; this module renders one
as a SQL script so it can be replayed inside an RDBMS, as the paper
envisions for TNF-based interoperation (§2.2).  The script is the one
:func:`~repro.backends.executor.execute_mapping` runs on stdlib sqlite, and
``repro discover --show-sql`` prints; its spelling follows SQLite's rules
(:mod:`repro.relational.dialect`).  SQLite tables are bags, so tables are
re-created with ``SELECT DISTINCT`` and column drops compile as such
re-creations, keeping executed results bit-identical with the in-memory
algebra.

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

Compile is where sqlite declines a mapping: :func:`check_step` runs on the
source and after every step, and raises
:class:`~repro.errors.BackendUnsupportedError` for what SQLite cannot run as
the algebra does.

Consecutive steps that rewrite one relation row by row (λ applications,
promotes, dereferences, drops, and the attribute renames between them)
compile as one run: a single ``CREATE TABLE … AS SELECT`` over a
column-expression list, so the table is copied once per run instead of once
per step (:class:`RowWiseRun`).  :func:`compile_script` returns a
:class:`SqlScript` whose statement list the backend executes one at a time
(polling deadline/cancel between statements); :func:`compile_expression`
keeps the annotated-text form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from ..errors import (
    BackendUnsupportedError,
    OperatorApplicationError,
    SqlRenderingError,
)
from ..relational.database import Database
from ..relational.dialect import (
    SQLITE,
    cast_to_text,
    fold_case,
    function_call,
    quote_identifier,
    quote_literal,
    values_table,
    why_unrepresentable,
)
from ..relational.intern import TEXTS, VALUES
from ..relational.relation import Relation
from ..relational.types import Value, is_null
from .base import Operator
from .combine import CartesianProduct, Merge, product_attributes
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
        statements: executable statements only (no comments), one entry
            per statement — the granularity at which the backend polls the
            deadline/cancel contract.
        text: the full annotated script (step markers + instance-directed
            commentary), suitable for display and files.
    """

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


def _scratch_table(relation: str, taken: Iterable[str]) -> str:
    """A name for a scratch copy of *relation* that SQLite tells apart from
    each of the table names *taken*."""
    folded = set(map(fold_case, taken))
    name, n = relation + "__tupelo_tmp", 1
    while fold_case(name) in folded:
        n += 1
        name = f"{relation}__tupelo_tmp{n}"
    return name


def _recreate(relation: str, select_body: str, db: Database) -> list[str]:
    """CREATE-new / DROP-old / RENAME dance replacing *relation* of *db*."""
    rel = quote_identifier(relation)
    tmp = quote_identifier(_scratch_table(relation, db.relation_names))
    return [
        f"CREATE TABLE {tmp} AS {select_body};",
        f"DROP TABLE {rel};",
        f"ALTER TABLE {tmp} RENAME TO {rel};",
    ]


#: operators whose SQL names come from cell values; every other operator's
#: SQL reads at most the relation's attribute list
DATA_READING_OPERATORS: tuple[type[Operator], ...] = (Promote, Partition)

#: operators that rewrite their relation row by row
ROW_WISE_OPERATORS: tuple[type[Operator], ...] = (
    RenameAttribute, ApplyFunction, Promote, Dereference, DropAttribute,
)


def compile_operator(op: Operator, db: Database) -> list[str]:
    """SQL statements implementing *op* on a database in the state *db*.

    *db* is the database **before** the operator runs; the
    :data:`DATA_READING_OPERATORS` read its rows to materialise
    data-dependent names, the rest only its schema.  Comment lines
    (``-- ...``) may be interleaved; filter with :func:`is_sql_comment`
    when executing.
    """
    if isinstance(op, ROW_WISE_OPERATORS):
        run = RowWiseRun(op.relation, db)
        run.add(op, db, [])
        return run.lines()
    if isinstance(op, RenameRelation):
        return [
            f"ALTER TABLE {quote_identifier(op.old)} "
            f"RENAME TO {quote_identifier(op.new)};"
        ]
    if isinstance(op, Select):
        table, column = quote_identifier(op.relation), quote_identifier(op.attribute)
        if is_null(op.value):
            return [f"DELETE FROM {table} WHERE {column} IS NOT NULL;"]
        return [
            f"DELETE FROM {table} WHERE {column} IS NULL "
            f"OR {column} <> {quote_literal(op.value)};"
        ]
    if isinstance(op, Demote):
        return _compile_demote(op, db)
    if isinstance(op, Partition):
        return _compile_partition(op, db)
    if isinstance(op, Merge):
        return _compile_merge(op, db)
    if isinstance(op, CartesianProduct):
        return _compile_product(op, db)
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

    def __init__(self, relation: str, start: Database) -> None:
        self.relation = relation
        self.start = start
        #: per step: its comment lines, and a rename's own statement
        self.steps: list[tuple[list[str], str | None]] = []
        self.aliases: dict[str, str] = {}
        self.dropped: set[str] = set()
        self.computed: dict[str, str] = {}

    def takes(self, op: Operator) -> bool:
        """Whether row-wise *op* continues this run (see
        :data:`ROW_WISE_OPERATORS`)."""
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
        alter = None
        if isinstance(op, RenameAttribute):
            alter = (
                f"ALTER TABLE {quote_identifier(op.relation)} RENAME COLUMN "
                f"{quote_identifier(op.old)} TO {quote_identifier(op.new)};"
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
            call = function_call(op.function, [self._read(a) for a in op.inputs])
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
                        f"CASE WHEN {_equals_any(key, values)} "
                        f"THEN {self._read(op.value_attr)} END",
                    )
        elif isinstance(op, Dereference):
            # The pointer cell is read as the *name* of an attribute (its
            # canonical text), but the dereferenced cell keeps its raw typed
            # value — the algebra copies t[t[A]] verbatim, so casting it
            # would break the cross-backend equivalence oracle on
            # non-string columns.
            rel = db.relation(op.relation)
            pointer = cast_to_text(self._read(op.pointer_attr))
            whens = " ".join(
                f"WHEN {pointer} = {quote_literal(attr)} THEN {self._read(attr)}"
                for attr in rel.attributes
            )
            self._compute(op.new_attr, f"CASE {whens} END")
        else:
            # An in-place drop can expose duplicate rows the algebra would
            # collapse, so the run re-creates the table with SELECT DISTINCT.
            notes.append(
                "-- drop: re-created with DISTINCT to preserve set semantics "
                "on a bag-semantics engine"
            )
            self.dropped.add(self.aliases.pop(op.attribute, op.attribute))
        self.steps.append((notes, alter))

    def _read(self, attr: str) -> str:
        """SQL reading attribute *attr* from the table the run found."""
        return quote_identifier(self.aliases.get(attr, attr))

    def _compute(self, name: str, expression: str) -> None:
        quote_identifier(name)  # an unquotable name fails here
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
        q = quote_identifier
        columns = ["*"]
        if self.aliases or self.dropped:
            names = {source: name for name, source in self.aliases.items()}
            columns = [
                q(a) if names.get(a, a) == a else f"{q(a)} AS {q(names[a])}"
                for a in self.start.relation(self.relation).attributes
                if a not in self.dropped
            ]
        columns += [f"{sql} AS {q(name)}" for name, sql in self.computed.items()]
        body = f"SELECT DISTINCT {', '.join(columns)} FROM {q(self.relation)}"
        text = [line for notes, _ in self.steps for line in notes]
        if len(self.steps) > 1:
            text.append(
                f"-- one copy of {self.relation!r} runs the "
                f"{len(self.steps)} steps above"
            )
        return [*text, *_recreate(self.relation, body, self.start)]


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


def _equals_any(column: str, values: list[Value]) -> str:
    """SQL matching *column* against any of *values*."""
    tests = [f"{column} = {quote_literal(value)}" for value in values]
    return tests[0] if len(tests) == 1 else f"({' OR '.join(tests)})"


def _compile_demote(op: Demote, db: Database) -> list[str]:
    # Both sides are aliased, so a relation named like the constant table
    # still reads as two tables.
    rel = db.relation(op.relation)
    meta = values_table(
        [(rel.name, attr) for attr in rel.attributes],
        "r",
        (DEMOTE_REL_ATTR, DEMOTE_ATT_ATTR),
    )
    body = (
        "SELECT DISTINCT l.*, r.* "
        f"FROM {quote_identifier(op.relation)} l CROSS JOIN {meta}"
    )
    return _recreate(op.relation, body, db)


def _compile_partition(op: Partition, db: Database) -> list[str]:
    groups = _values_by_name(db.relation(op.relation), op.attribute)
    statements = [
        f"-- partition: table names below come from the data of "
        f"{op.attribute!r} (instance-directed)"
    ]
    # The algebra drops the input before naming the outputs, so a partition
    # may reuse the input's name; SQL must move the input aside first, to a
    # name no table and no output takes.
    input_table = op.relation
    if op.relation in groups:
        input_table = _scratch_table(op.relation, [*db.relation_names, *groups])
        statements.append(
            f"ALTER TABLE {quote_identifier(op.relation)} "
            f"RENAME TO {quote_identifier(input_table)};"
        )
    key = quote_identifier(op.attribute)
    for table, values in groups.items():
        statements.append(
            f"CREATE TABLE {quote_identifier(table)} AS "
            f"SELECT DISTINCT * FROM {quote_identifier(input_table)} "
            f"WHERE {_equals_any(key, values)};"
        )
    statements.append(f"DROP TABLE {quote_identifier(input_table)};")
    return statements


def _compile_merge(op: Merge, db: Database) -> list[str]:
    # NULL never equals NULL in the merge semantics, so NULL-keyed tuples do
    # not participate: GROUP BY the non-NULL keys and UNION the NULL-keyed
    # rows back in untouched (SQL's GROUP BY would wrongly pool them).
    rel = db.relation(op.relation)
    table = quote_identifier(op.relation)
    key = quote_identifier(op.attribute)
    others = [quote_identifier(a) for a in rel.attributes if a != op.attribute]
    aggregates = [f"MAX({a}) AS {a}" for a in others]
    grouped = (
        f"SELECT {', '.join([key, *aggregates])} "
        f"FROM {table} "
        f"WHERE {key} IS NOT NULL "
        f"GROUP BY {key}"
    )
    passthrough = (
        f"SELECT DISTINCT {', '.join([key, *others])} "
        f"FROM {table} "
        f"WHERE {key} IS NULL"
    )
    body = f"{grouped} UNION ALL {passthrough}"
    return [
        "-- merge: GROUP BY/MAX coalescing is exact only when each key group "
        "holds at most one non-NULL value per column; NULL-keyed rows pass "
        "through unmerged",
        *_recreate(op.relation, body, db),
    ]


def _compile_product(op: CartesianProduct, db: Database) -> list[str]:
    left = db.relation(op.left)
    right = db.relation(op.right)
    columns = [("l", attr) for attr in left.attributes]
    columns += [("r", attr) for attr in right.attributes]
    select_list = ", ".join(
        f"{alias}.{quote_identifier(attr)} AS {quote_identifier(name)}"
        for (alias, attr), name in zip(columns, product_attributes(left, right))
    )
    body = (
        f"SELECT DISTINCT {select_list} "
        f"FROM {quote_identifier(op.left)} l "
        f"CROSS JOIN {quote_identifier(op.right)} r"
    )
    return [f"CREATE TABLE {quote_identifier(op.result_name)} AS {body};"]


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
) -> SqlScript:
    """Compile a whole pipeline to a :class:`SqlScript`, step by step.

    The pipeline is executed on *source* up to and including its last
    :data:`DATA_READING_OPERATORS` step, so those steps can materialise
    the names they create, and on a rows-free copy of the schema after it.
    Each step is replayed and checked (:func:`check_step`) before its SQL
    is written, so schema faults (a missing relation or attribute, a name
    collision, an unknown function, a wrong arity) raise here; a value
    fault in a later λ surfaces in the engine.  Each maximal run of
    row-wise steps on one relation compiles as one :class:`RowWiseRun`.

    Raises:
        BackendUnsupportedError: when SQLite cannot run the pipeline as
            the algebra does.
    """
    lines: list[str] = ["-- TUPELO mapping expression compiled to SQL"]
    last_data_step = max(
        (
            i
            for i, op in enumerate(expression, start=1)
            if isinstance(op, DATA_READING_OPERATORS)
        ),
        default=0,
    )
    check_step(source, source)
    db = source if last_data_step else _rows_free(source)
    run: RowWiseRun | None = None
    for i, op in enumerate(expression, start=1):
        after = op.apply(db, registry)
        check_step(db, after, op)
        notes = [f"-- step {i}: {op}"]
        row_wise = isinstance(op, ROW_WISE_OPERATORS)
        if run is not None and not (row_wise and run.takes(op)):
            lines += [*run.lines(), ""]
            run = None
        if row_wise:
            run = run or RowWiseRun(op.relation, db)
            run.add(op, db, notes)
        else:
            lines += [*notes, *compile_operator(op, db), ""]
        db = _rows_free(after) if i == last_data_step else after
    if run is not None:
        lines += run.lines()
    text = "\n".join(lines).rstrip() + "\n"
    statements = tuple(line for line in lines if not is_sql_comment(line))
    return SqlScript(statements=statements, text=text)


def check_step(
    before: Database, after: Database, op: Operator | None = None
) -> None:
    """Decline what SQLite cannot run as the algebra does.

    Compile calls this on the source (passed as *before* and *after*, with
    no *op*) and after every step *op*, which took *before* to *after*:
    it is where sqlite declines a mapping.  A step whose SQL needs a
    literal SQLite cannot spell is declined (:func:`_unspellable_literal`),
    and so is what :func:`~repro.relational.dialect.why_unrepresentable`
    finds: a bool or an int wider than 64 bits in the source, or names
    SQLite cannot quote or hold side by side.

    Raises:
        BackendUnsupportedError: naming sqlite and the reason.
    """
    reason = _unspellable_literal(op, before)
    if reason is None:
        reason = why_unrepresentable(before, after)
    if reason is not None:
        raise BackendUnsupportedError(SQLITE, reason)


def _unspellable_literal(op: Operator | None, db: Database) -> str | None:
    """Why SQLite cannot spell a literal that *op* on *db* compiles to, or
    None.

    A select compares with its value, and a promote or partition with each
    value of the column whose cells name its columns or tables: a bool, a
    non-finite float or a string holding a NUL byte has no SQL literal.
    """
    if isinstance(op, Select):
        values = [op.value]
    elif isinstance(op, DATA_READING_OPERATORS):
        rel = db.relation(op.relation)
        pos = rel.attribute_position(
            op.name_attr if isinstance(op, Promote) else op.attribute
        )
        tokens = {row[pos] for row in rel.token_rows}
        values = [VALUES[token] for token in tokens]
    else:
        return None
    for value in values:
        try:
            quote_literal(value)
        except SqlRenderingError as exc:
            return f"{op}: {exc}"
    return None


def compile_expression(
    expression: MappingExpression,
    source: Database,
    registry: "FunctionRegistry | None" = None,
) -> str:
    """Compile a whole pipeline to an annotated SQL script (text form).

    Raises:
        BackendUnsupportedError: when SQLite cannot run the pipeline as
            the algebra does.
    """
    return compile_script(expression, source, registry).text
