"""Interpreter for the mini-SQL dialect.

:class:`MiniSqlEngine` holds a catalogue of relations and executes the
scripts produced by :func:`repro.fira.sqlcompile.compile_expression`,
:func:`repro.relational.sql.relation_to_sql`, and
:func:`repro.relational.sql.tnf_construction_sql`, so the SQL compilation
path can be *verified* end-to-end against the in-memory algebra (the
integration tests do exactly that).

Semantic notes (documented divergences from full SQL):

* tables have **set semantics** (duplicate rows collapse), matching the
  paper's relational model;
* comparisons involving NULL are false (two-valued logic is enough for the
  predicates the compiler emits — it always guards NULL explicitly);
* ``CAST(x AS TEXT)`` uses the library's canonical text rendering;
* ``ROW_NUMBER() OVER ()`` numbers rows in the relation's deterministic
  sorted order, so scripts are reproducible.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from ..errors import TupeloError
from ..relational.database import Database
from ..relational.relation import Relation
from ..relational.types import NULL, Value, is_null, value_sort_key, value_to_text
from ..semantics.functions import FunctionRegistry, builtin_registry
from .lexer import SqlSyntaxError
from .nodes import (
    Aggregate,
    BoolOp,
    CaseWhen,
    Cast,
    ColumnRef,
    Comparison,
    Concat,
    CreateTable,
    CreateTableAs,
    CrossJoin,
    Delete,
    DropColumn,
    DropTable,
    Expr,
    FromClause,
    FunctionCall,
    InsertValues,
    IsNull,
    Literal,
    NotOp,
    Query,
    RenameColumn,
    RenameTable,
    RowNumber,
    Select,
    Star,
    TableSource,
    UnionAll,
    ValuesSource,
)
from .parser import parse_script


class SqlExecutionError(TupeloError):
    """A statement was well-formed but could not be executed."""


class _Binding:
    """One source row: ordered (label, column, value) triples."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[tuple[str, str, Value]]) -> None:
        self.entries = entries

    def lookup(self, name: str, qualifier: str | None) -> Value:
        matches = [
            value
            for label, column, value in self.entries
            if column == name and (qualifier is None or label == qualifier)
        ]
        if not matches:
            raise SqlExecutionError(
                f"unknown column {qualifier + '.' if qualifier else ''}{name}"
            )
        if len(matches) > 1 and qualifier is None:
            raise SqlExecutionError(f"ambiguous column {name!r}")
        return matches[0]

    def star(self, qualifier: str | None) -> list[tuple[str, Value]]:
        selected = [
            (column, value)
            for label, column, value in self.entries
            if qualifier is None or label == qualifier
        ]
        if not selected:
            raise SqlExecutionError(f"no columns for qualifier {qualifier!r}")
        return selected

    def joined(self, other: "_Binding") -> "_Binding":
        return _Binding(self.entries + other.entries)

    def sort_key(self):
        return tuple(
            (label, column, value_sort_key(value))
            for label, column, value in self.entries
        )


class MiniSqlEngine:
    """An in-memory executor over the library's relations.

    Args:
        database: initial catalogue contents (optional).
        registry: resolves scalar function calls (λ UDFs); defaults to the
            built-in semantic functions.
    """

    def __init__(
        self,
        database: Database | None = None,
        registry: FunctionRegistry | None = None,
    ) -> None:
        self._tables: dict[str, Relation] = {}
        if database is not None:
            for rel in database:
                self._tables[rel.name] = rel
        self._registry = registry if registry is not None else builtin_registry()

    # -- catalogue --------------------------------------------------------------

    @property
    def database(self) -> Database:
        """The current catalogue as an immutable database."""
        return Database(self._tables.values())

    def table(self, name: str) -> Relation:
        """Fetch a table (raises :class:`SqlExecutionError` if absent)."""
        try:
            return self._tables[name]
        except KeyError:
            raise SqlExecutionError(f"no such table {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    # -- execution ----------------------------------------------------------------

    def execute(self, script: str) -> None:
        """Parse and execute a script (multiple ';'-separated statements)."""
        for statement in parse_script(script):
            self._execute_statement(statement)

    def _execute_statement(self, statement) -> None:
        if isinstance(statement, CreateTableAs):
            if statement.name in self._tables:
                raise SqlExecutionError(
                    f"table {statement.name!r} already exists"
                )
            attributes, rows = self._run_query(statement.select)
            self._tables[statement.name] = Relation(
                statement.name, attributes, rows
            )
        elif isinstance(statement, CreateTable):
            if statement.name in self._tables:
                raise SqlExecutionError(
                    f"table {statement.name!r} already exists"
                )
            self._tables[statement.name] = Relation(
                statement.name, [c.name for c in statement.columns], []
            )
        elif isinstance(statement, DropTable):
            self.table(statement.name)
            del self._tables[statement.name]
        elif isinstance(statement, RenameTable):
            rel = self.table(statement.old)
            if statement.new in self._tables:
                raise SqlExecutionError(
                    f"table {statement.new!r} already exists"
                )
            del self._tables[statement.old]
            self._tables[statement.new] = rel.renamed(statement.new)
        elif isinstance(statement, RenameColumn):
            rel = self.table(statement.table)
            self._tables[statement.table] = rel.rename_attribute(
                statement.old, statement.new
            )
        elif isinstance(statement, DropColumn):
            rel = self.table(statement.table)
            self._tables[statement.table] = rel.drop_attribute(statement.column)
        elif isinstance(statement, InsertValues):
            self._insert(statement)
        elif isinstance(statement, Delete):
            self._delete(statement)
        else:  # pragma: no cover - parser only builds the above
            raise SqlExecutionError(f"unsupported statement {statement!r}")

    def _insert(self, statement: InsertValues) -> None:
        rel = self.table(statement.table)
        if len(statement.columns) != len(statement.values):
            raise SqlExecutionError("INSERT arity mismatch")
        row = {attr: NULL for attr in rel.attributes}
        for column, value in zip(statement.columns, statement.values):
            if not rel.has_attribute(column):
                raise SqlExecutionError(
                    f"table {statement.table!r} has no column {column!r}"
                )
            row[column] = value
        new_rows = set(rel.rows)
        new_rows.add(tuple(row[attr] for attr in rel.attributes))
        self._tables[statement.table] = rel.with_rows(new_rows)

    def _delete(self, statement: Delete) -> None:
        rel = self.table(statement.table)
        if statement.where is None:
            self._tables[statement.table] = rel.with_rows([])
            return
        kept = []
        for row in rel.rows:
            binding = _Binding(
                [
                    (statement.table, attr, value)
                    for attr, value in zip(rel.attributes, row)
                ]
            )
            if not _truthy(self._eval(statement.where, binding, None)):
                kept.append(row)
        self._tables[statement.table] = rel.with_rows(kept)

    # -- query evaluation --------------------------------------------------------------

    def _run_query(self, query: Query) -> tuple[list[str], list[tuple[Value, ...]]]:
        if isinstance(query, UnionAll):
            attributes: list[str] | None = None
            rows: list[tuple[Value, ...]] = []
            for select in query.selects:
                attrs, part = self._run_select(select)
                if attributes is None:
                    attributes = attrs
                elif attrs != attributes:
                    raise SqlExecutionError(
                        "UNION ALL branches have different columns: "
                        f"{attributes} vs {attrs}"
                    )
                rows.extend(part)
            assert attributes is not None
            return attributes, rows
        return self._run_select(query)

    def _run_select(self, select: Select) -> tuple[list[str], list[tuple[Value, ...]]]:
        bindings = self._bindings(select.source)
        bindings.sort(key=_Binding.sort_key)  # deterministic ROW_NUMBER
        if select.where is not None:
            bindings = [
                b
                for b in bindings
                if _truthy(self._eval(select.where, b, None))
            ]
        if select.group_by:
            return self._run_grouped(select, bindings)

        attributes: list[str] | None = None
        rows: list[tuple[Value, ...]] = []
        for row_number, binding in enumerate(bindings, start=1):
            names, values = self._project(select.items, binding, row_number)
            if attributes is None:
                attributes = names
            rows.append(tuple(values))
        if attributes is None:
            # empty input: derive attribute names from a probe of the items
            attributes = self._projected_names(select.items, select.source)
        return attributes, rows

    def _run_grouped(
        self, select: Select, bindings: list[_Binding]
    ) -> tuple[list[str], list[tuple[Value, ...]]]:
        keys = select.group_by
        groups: dict[tuple, list[_Binding]] = {}
        for binding in bindings:
            key = tuple(
                value_sort_key(binding.lookup(k.name, k.qualifier)) for k in keys
            )
            groups.setdefault(key, []).append(binding)

        attributes: list[str] | None = None
        rows = []
        for _key in sorted(groups):
            group = groups[_key]
            names: list[str] = []
            values: list[Value] = []
            for item in select.items:
                if isinstance(item.expr, Star):
                    raise SqlExecutionError("SELECT * with GROUP BY")
                if isinstance(item.expr, Aggregate):
                    names.append(item.alias or item.expr.func.lower())
                    values.append(self._aggregate(item.expr, group))
                elif isinstance(item.expr, ColumnRef):
                    ref = item.expr
                    if not any(
                        k.name == ref.name and k.qualifier == ref.qualifier
                        for k in keys
                    ):
                        raise SqlExecutionError(
                            f"column {ref.name!r} not in GROUP BY"
                        )
                    names.append(item.alias or ref.name)
                    values.append(group[0].lookup(ref.name, ref.qualifier))
                else:
                    raise SqlExecutionError(
                        "GROUP BY select items must be keys or aggregates"
                    )
            if attributes is None:
                attributes = names
            rows.append(tuple(values))
        if attributes is None:
            attributes = [
                item.alias
                or (
                    item.expr.name
                    if isinstance(item.expr, ColumnRef)
                    else item.expr.func.lower()
                    if isinstance(item.expr, Aggregate)
                    else "?"
                )
                for item in select.items
            ]
        return attributes, rows

    def _aggregate(self, aggregate: Aggregate, group: list[_Binding]) -> Value:
        if aggregate.func == "COUNT":
            if isinstance(aggregate.arg, Star):
                return len(group)
            values = [
                self._eval(aggregate.arg, b, None)
                for b in group
            ]
            return sum(1 for v in values if not is_null(v))
        values = [
            self._eval(aggregate.arg, b, None)
            for b in group
        ]
        present = [v for v in values if not is_null(v)]
        if not present:
            return NULL
        ordered = sorted(present, key=value_sort_key)
        return ordered[-1] if aggregate.func == "MAX" else ordered[0]

    # -- FROM clause -------------------------------------------------------------------

    def _bindings(self, source: FromClause) -> list[_Binding]:
        if isinstance(source, TableSource):
            rel = self.table(source.name)
            label = source.alias or source.name
            return [
                _Binding(
                    [
                        (label, attr, value)
                        for attr, value in zip(rel.attributes, row)
                    ]
                )
                for row in rel.sorted_rows()
            ]
        if isinstance(source, ValuesSource):
            if any(len(row) != len(source.columns) for row in source.rows):
                raise SqlExecutionError("VALUES arity mismatch")
            return [
                _Binding(
                    [
                        (source.alias, column, value)
                        for column, value in zip(source.columns, row)
                    ]
                )
                for row in source.rows
            ]
        if isinstance(source, CrossJoin):
            left = self._bindings(source.left)
            right = self._bindings(source.right)
            return [l.joined(r) for l in left for r in right]
        raise SqlExecutionError(f"unsupported FROM clause {source!r}")

    # -- projection --------------------------------------------------------------------

    def _project(
        self, items: Sequence, binding: _Binding, row_number: int
    ) -> tuple[list[str], list[Value]]:
        names: list[str] = []
        values: list[Value] = []
        for i, item in enumerate(items):
            if isinstance(item.expr, Star):
                for column, value in binding.star(item.expr.qualifier):
                    names.append(column)
                    values.append(value)
                continue
            names.append(self._item_name(item, i))
            values.append(self._eval(item.expr, binding, row_number))
        return names, values

    @staticmethod
    def _item_name(item, index: int) -> str:
        if item.alias is not None:
            return item.alias
        if isinstance(item.expr, ColumnRef):
            return item.expr.name
        return f"column{index + 1}"

    def _projected_names(self, items, source: FromClause) -> list[str]:
        names: list[str] = []
        for i, item in enumerate(items):
            if isinstance(item.expr, Star):
                names.extend(self._source_columns(source, item.expr.qualifier))
            else:
                names.append(self._item_name(item, i))
        return names

    def _source_columns(self, source: FromClause, qualifier: str | None) -> list[str]:
        if isinstance(source, TableSource):
            label = source.alias or source.name
            if qualifier in (None, label, source.name):
                return list(self.table(source.name).attributes)
            return []
        if isinstance(source, ValuesSource):
            if qualifier in (None, source.alias):
                return list(source.columns)
            return []
        if isinstance(source, CrossJoin):
            return self._source_columns(
                source.left, qualifier
            ) + self._source_columns(source.right, qualifier)
        return []

    # -- scalar evaluation ----------------------------------------------------------------

    def _eval(self, expr: Expr, binding: _Binding, row_number: int | None) -> Value:
        if isinstance(expr, Literal):
            return expr.value
        if isinstance(expr, ColumnRef):
            return binding.lookup(expr.name, expr.qualifier)
        if isinstance(expr, Concat):
            return "".join(
                value_to_text(self._eval(part, binding, row_number))
                for part in expr.parts
            )
        if isinstance(expr, Cast):
            value = self._eval(expr.expr, binding, row_number)
            if expr.type_name == "TEXT":
                return NULL if is_null(value) else value_to_text(value)
            raise SqlExecutionError(f"unsupported CAST target {expr.type_name}")
        if isinstance(expr, CaseWhen):
            for condition, result in expr.whens:
                if _truthy(self._eval(condition, binding, row_number)):
                    return self._eval(result, binding, row_number)
            if expr.default is not None:
                return self._eval(expr.default, binding, row_number)
            return NULL
        if isinstance(expr, FunctionCall):
            fn = self._registry.get(expr.name)
            args = [self._eval(arg, binding, row_number) for arg in expr.args]
            return fn.apply(*args)
        if isinstance(expr, RowNumber):
            if row_number is None:
                raise SqlExecutionError("ROW_NUMBER() outside a select list")
            return row_number
        if isinstance(expr, Comparison):
            left = self._eval(expr.left, binding, row_number)
            right = self._eval(expr.right, binding, row_number)
            if is_null(left) or is_null(right):
                return False
            return (left == right) if expr.op == "=" else (left != right)
        if isinstance(expr, IsNull):
            value = self._eval(expr.expr, binding, row_number)
            return (not is_null(value)) if expr.negated else is_null(value)
        if isinstance(expr, BoolOp):
            results = (
                _truthy(self._eval(op, binding, row_number))
                for op in expr.operands
            )
            return any(results) if expr.op == "OR" else all(results)
        if isinstance(expr, NotOp):
            return not _truthy(self._eval(expr.operand, binding, row_number))
        if isinstance(expr, Aggregate):
            raise SqlExecutionError("aggregate outside GROUP BY")
        raise SqlExecutionError(f"unsupported expression {expr!r}")


def _truthy(value: Value) -> bool:
    return bool(value) and not is_null(value)


def run_script(
    script: str,
    database: Database | None = None,
    registry: FunctionRegistry | None = None,
) -> Database:
    """Convenience: execute *script* against *database*, return the result."""
    engine = MiniSqlEngine(database, registry)
    engine.execute(script)
    return engine.database
