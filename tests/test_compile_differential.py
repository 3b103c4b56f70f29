"""Generated differential check of SQL compilation and execution.

Hypothesis draws small instances (NULL-heavy and empty relations,
duplicate rows, ``"1"`` next to ``1``) and pipelines of one to four
operators: promote and partition, whose SQL names come from cell values,
at random positions among renames, drops, merges and at most one λ.  Each
pipeline is checked twice:

* :func:`compile_script` must equal a reference that replays *every* step
  on the data, statements and text, under every dialect; a pipeline the
  reference cannot compile must fail with the same error.  The compiler
  itself replays on the data only up to the last promote or partition.
* a pipeline the algebra can apply must give the algebra's result on
  minisql and, where the backend supports the instance, on sqlite.

Two known limits of the engines are kept out of the engine check, and
counted as hypothesis events.  SQLite folds identifier case, so a
pipeline with a step that puts two names differing only in case side by
side skips the sqlite leg (``tests/test_backends.py::TestSqliteNames`` pins the fault).
Merge compiles to GROUP BY/MAX, which equals the algebra's merge only when
each key group holds at most one non-NULL value per other column; a
pipeline with any other merge is compiled but not executed
(:func:`test_merge_of_incompatible_rows` pins the fault on both engines).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, given, note, settings, strategies as st

from repro import Database, Relation
from repro.backends import SqliteBackend, execute_mapping
from repro.errors import SignatureError
from repro.fira import (
    ApplyFunction,
    DropAttribute,
    MappingExpression,
    Merge,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
)
from repro.fira.sqlcompile import (
    SqlScript,
    compile_operator,
    compile_script,
    is_sql_comment,
)
from repro.relational import NULL
from repro.relational.dialect import CANONICAL_DIALECT, DIALECTS
from repro.semantics import builtin_registry

REGISTRY = builtin_registry()

#: every dialect the compiler renders, the canonical one included
ALL_DIALECTS = (CANONICAL_DIALECT, *DIALECTS.values())

#: cell values: strings, ints and a float, with "1" next to 1 and "A" next to "a"
CELLS = ("a", "A", "b", "c", "1", 1, 2, 2.5, NULL)

RELATION_NAMES = ("R", "S")
ATTRIBUTES = ("k", "v", "w")
NEW_RELATION_NAMES = ("T", "U", "R")
NEW_ATTRIBUTES = ("x", "y", "k")

#: operator kinds drawn per step; promote and partition twice as often
KINDS = (
    "promote", "promote", "partition", "partition",
    "rename_att", "rename_rel", "drop", "merge", "apply",
)


def reference_compile(expression, source, registry, dialect) -> SqlScript:
    """The compiler with every step replayed on the data."""
    lines = ["-- TUPELO mapping expression compiled to SQL"]
    statements: list[str] = []
    db = source
    for i, op in enumerate(expression, start=1):
        lines.append(f"-- step {i}: {op}")
        emitted = compile_operator(op, db, dialect)
        lines.extend(emitted)
        statements.extend(s for s in emitted if not is_sql_comment(s))
        db = op.apply(db, registry)
        lines.append("")
    text = "\n".join(lines).rstrip() + "\n"
    return SqlScript(dialect=dialect.name, statements=tuple(statements), text=text)


def folds_to_a_clash(before: Database, after: Database) -> bool:
    """Whether a step puts two names differing only in case side by side.

    A step's output tables coexist with its input's for a moment: a
    partition creates its tables before it drops the one it splits.
    """
    groups = [
        {*before.relation_names, *after.relation_names},
        *(rel.attributes for rel in after),
    ]
    return any(len({n.lower() for n in names}) < len(names) for names in groups)


def merge_is_exact(db: Database, op: Merge) -> bool:
    """Whether GROUP BY/MAX equals the algebra's merge on *db*."""
    rel = db.relation(op.relation)
    key = rel.attribute_position(op.attribute)
    seen: dict[tuple[object, int], object] = {}
    for row in rel.rows:
        if row[key] is NULL:
            continue
        for pos, value in enumerate(row):
            if value is NULL or pos == key:
                continue
            if seen.setdefault((row[key], pos), value) != value:
                return False
    return True


@st.composite
def relations(draw, name: str) -> Relation:
    attrs = draw(st.permutations(ATTRIBUTES))[: draw(st.integers(2, 3))]
    cells = st.sampled_from(CELLS)
    if draw(st.booleans()):  # NULL-heavy
        cells = st.one_of(st.just(NULL), cells)
    empty = not draw(st.integers(0, 3))
    rows = draw(
        st.lists(st.tuples(*[cells] * len(attrs)), min_size=not empty, max_size=6)
    )
    # a repeated row collapses, as in the algebra's set semantics
    return Relation(name, attrs, rows + rows[:1])


def candidates(db: Database, kind: str):
    """Every operator of *kind* over *db*'s schema, applicable or not."""
    for rel in db:
        name, attrs = rel.name, rel.attributes
        if kind == "promote":
            yield from (Promote(name, a, b) for a in attrs for b in attrs)
        elif kind == "partition":
            yield from (Partition(name, a) for a in attrs)
        elif kind == "rename_att":
            yield from (
                RenameAttribute(name, a, new) for a in attrs for new in NEW_ATTRIBUTES
            )
        elif kind == "rename_rel":
            yield from (RenameRelation(name, new) for new in NEW_RELATION_NAMES)
        elif kind == "drop":
            yield from (DropAttribute(name, a) for a in attrs)
        elif kind == "merge":
            yield from (Merge(name, a) for a in attrs)
        else:
            yield from (ApplyFunction(name, "upper", (a,), "u") for a in attrs)
            yield from (
                ApplyFunction(name, "concat", (a, b), "u") for a in attrs for b in attrs
            )


@st.composite
def cases(draw):
    """A source and a pipeline; a step that fails to apply ends it.

    Nine steps in ten pick among the operators applicable to the state
    reached, so most pipelines run to the end.
    """
    names = draw(st.permutations(RELATION_NAMES))[: draw(st.integers(1, 2))]
    source = Database(draw(relations(name)) for name in names)
    ops = []
    db = source
    kinds = KINDS
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pools = {kind: list(candidates(db, kind)) for kind in dict.fromkeys(kinds)}
        if draw(st.integers(0, 9)):
            pools = {
                kind: applicable
                for kind, pool in pools.items()
                if (applicable := [op for op in pool if op.is_applicable(db)])
            }
        kind = draw(st.sampled_from([kind for kind in kinds if kind in pools]))
        op = draw(st.sampled_from(pools[kind]))
        if isinstance(op, ApplyFunction):
            kinds = KINDS[:-1]  # at most one λ
        ops.append(op)
        try:
            db = op.apply(db, REGISTRY)
        except Exception:  # noqa: BLE001 - the failing step is the case
            break
    return source, MappingExpression(ops)


@settings(
    max_examples=250,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_compile_and_engines_match_the_algebra(case):
    source, expression = case
    note(f"{source.to_text()}\n{expression}")
    for dialect in ALL_DIALECTS:
        try:
            expected = reference_compile(expression, source, REGISTRY, dialect)
        except Exception as exc:  # noqa: BLE001 - compared below
            with pytest.raises(type(exc)) as raised:
                compile_script(expression, source, REGISTRY, dialect)
            assert str(raised.value) == str(exc)
        else:
            assert compile_script(expression, source, REGISTRY, dialect) == expected

    db = source
    exact, clash = True, folds_to_a_clash(source, source)
    try:
        for op in expression:
            if isinstance(op, Merge):
                exact = exact and merge_is_exact(db, op)
            before, db = db, op.apply(db, REGISTRY)
            clash = clash or folds_to_a_clash(before, db)
    except Exception:  # noqa: BLE001 - the algebra cannot apply it
        event("algebra fails")
        return
    if not exact:
        event("merge outside GROUP BY/MAX")
        return
    backends = ["minisql"]
    if clash:
        event("names differing only in case")
    elif SqliteBackend().supports(expression, source):
        backends.append("sqlite")
    event(f"engines: {backends}")
    for backend in backends:
        result = execute_mapping(expression, source, backend=backend, registry=REGISTRY)
        assert result.database == db, f"{backend} diverged from the algebra"


@pytest.fixture
def weights():
    return Database.single(
        Relation("W", ("id", "lb"), [(1, 10), (2, "heavy"), (3, 4.5)])
    )


def test_compile_leaves_value_faults_to_the_engine(weights):
    """No promote or partition: compile reads no row, so no λ value."""
    expression = MappingExpression(
        [ApplyFunction("W", "lb_to_kg", ("lb",), "kg")]
    )
    script = compile_script(expression, weights, REGISTRY, DIALECTS["sqlite"])
    assert script.statement_count == 3


@pytest.mark.parametrize("backend", ["minisql", "sqlite"])
def test_lambda_value_fault_raises_the_functions_error(weights, backend):
    expression = MappingExpression(
        [ApplyFunction("W", "lb_to_kg", ("lb",), "kg")]
    )
    with pytest.raises(SignatureError) as algebra:
        expression.apply(weights, REGISTRY)
    with pytest.raises(SignatureError) as engine:
        execute_mapping(expression, weights, backend=backend, registry=REGISTRY)
    assert str(engine.value) == str(algebra.value)


@pytest.mark.xfail(
    strict=True,
    reason="merge compiles to GROUP BY/MAX, which pools rows the algebra keeps apart",
)
@pytest.mark.parametrize("backend", ["minisql", "sqlite"])
def test_merge_of_incompatible_rows(backend):
    # (1, "a") and (1, "b") disagree on v, so the algebra keeps both rows;
    # MAX(v) per key group leaves one.
    db = Database.single(Relation("R", ("k", "v"), [(1, "a"), (1, "b")]))
    expression = MappingExpression([Merge("R", "k")])
    result = execute_mapping(expression, db, backend=backend, registry=REGISTRY)
    assert result.database == expression.apply(db, REGISTRY)
