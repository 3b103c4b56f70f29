"""Generated differential check of SQL compilation and execution.

Hypothesis draws small instances (NULL-heavy and empty relations,
duplicate rows, ``"1"`` next to ``1``, ``"A"`` next to ``"a"``, non-ASCII
names and values such as ``"É"`` next to ``"é"``, values naming an
attribute or a relation, and names the compiler uses itself: demote's
constant table ``__meta`` and a scratch copy ``R__tupelo_tmp``) and
pipelines of one to five operators: promote and partition,
whose SQL names come from cell values, at random positions among renames,
drops, merges, dereferences, demotions, cartesian products and up to three
λs with distinct outputs, which may read an earlier λ's output.  Consecutive
row-wise steps on one relation compile as one table copy, so the draws
hold fused runs and the points where a run must break.  Each pipeline is
checked twice:

* :func:`compile_script` must equal a reference that replays *every* step
  on the data and fuses the same runs, statements and text; a pipeline
  the reference cannot compile must fail with the same error.  The
  compiler itself replays on the data only up to the last promote or
  partition.
* a pipeline the algebra can apply must give the algebra's result under
  ``execute_mapping``'s ``auto``: on sqlite where sqlite supports the
  instance, and on the algebra leg, named ``"algebra"``, where it
  declines.

SQLite folds the case of ASCII letters in identifiers, and of no other
letters, so wherever a step puts two names differing only in ASCII case
side by side, sqlite must decline the pipeline at compile
(``BackendUnsupportedError``) and ``auto`` must hand it to the algebra;
the event is counted.  No drawn name or value meets sqlite's other
declines (booleans, ints beyond 64 bits, ``sqlite_`` tables, columns
called ``TRUE`` or ``FALSE``), so sqlite must run every other pipeline.  Merge compiles to GROUP BY/MAX, which equals the
algebra's merge only when each key group holds at most one non-NULL value
per other column; a pipeline with any other merge is compiled but not
executed (:func:`test_merge_of_incompatible_rows` pins the fault on
sqlite).
"""

from __future__ import annotations

import string

import pytest
from hypothesis import HealthCheck, event, given, note, settings, strategies as st

from repro import Database, Relation
from repro.backends import execute_mapping
from repro.errors import BackendUnsupportedError, SignatureError
from repro.fira import (
    ApplyFunction,
    CartesianProduct,
    Demote,
    Dereference,
    DropAttribute,
    MappingExpression,
    Merge,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
)
from repro.fira.sqlcompile import (
    ROW_WISE_OPERATORS,
    RowWiseRun,
    SqlScript,
    check_step,
    compile_operator,
    compile_script,
    is_sql_comment,
)
from repro.relational import NULL
from repro.semantics import builtin_registry

REGISTRY = builtin_registry()

#: cell values: strings, ints and a float, with "1" next to 1, "A" next to
#: "a", "É" next to "é", "w" and "é" naming an attribute for dereference to
#: follow, and "R" and "r__Tupelo_tmp" naming a relation and its scratch
#: copy for partition to make
CELLS = ("a", "A", "b", "c", "w", "é", "É", "R", "r__Tupelo_tmp", "1", 1, 2, 2.5, NULL)

#: names, a few of them non-ASCII: "Ü" next to "ü" and "é" next to "É"
#: differ in a case SQLite does not fold; "__meta" names demote's constant
#: table, and "R__tupelo_tmp", in any ASCII case, the scratch copy a step
#: on "R" makes
RELATION_NAMES = ("R", "S", "Ü", "__meta", "R__TUPELO_TMP")
ATTRIBUTES = ("k", "v", "w", "é")
NEW_RELATION_NAMES = ("T", "U", "R", "ü", "R__tupelo_tmp")
NEW_ATTRIBUTES = ("x", "y", "k", "É")

#: SQLite folds the case of ASCII letters in identifiers, and only those
ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)

#: the outputs of a pipeline's first, second and third λ
LAMBDA_OUTPUTS = ("u", "t", "s")

#: operator kinds drawn per step, weighted towards the row-wise ones that
#: compile as one run: λ three times as often, promote, partition,
#: attribute renames, drops and dereferences twice
KINDS = (
    "apply", "apply", "apply", "promote", "promote", "partition", "partition",
    "rename_att", "rename_att", "drop", "drop", "deref", "deref",
    "rename_rel", "merge", "demote", "product",
)
NO_LAMBDA_KINDS = tuple(kind for kind in KINDS if kind != "apply")


def reference_compile(expression, source, registry) -> SqlScript:
    """The compiler with every step replayed on the data."""
    lines = ["-- TUPELO mapping expression compiled to SQL"]
    check_step(source, source)
    db = source
    run = None
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
        db = after
    if run is not None:
        lines += run.lines()
    text = "\n".join(lines).rstrip() + "\n"
    statements = tuple(line for line in lines if not is_sql_comment(line))
    return SqlScript(statements=statements, text=text)


def folds_to_a_clash(before: Database, after: Database) -> bool:
    """Whether a step puts two names differing only in ASCII case side by
    side.

    A step's output tables coexist with its input's for a moment: a
    partition creates its tables before it drops the one it splits.
    """
    groups = [
        {*before.relation_names, *after.relation_names},
        *(rel.attributes for rel in after),
    ]
    return any(
        len({n.translate(ASCII_FOLD) for n in names}) < len(names)
        for names in groups
    )


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


def why_inexact(db: Database, op) -> str | None:
    """Why the engines cannot return the algebra's result of *op* on *db*."""
    if isinstance(op, Merge) and not merge_is_exact(db, op):
        return "merge outside GROUP BY/MAX"
    return None


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


def candidates(db: Database, kind: str, lambdas: int):
    """Every operator of *kind* over *db*'s schema, applicable or not.

    A λ, after *lambdas* earlier ones, writes ``LAMBDA_OUTPUTS[lambdas]``.
    """
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
        elif kind == "deref":
            yield from (Dereference(name, a, "d") for a in attrs)
        elif kind == "demote":
            yield Demote(name)
        elif kind == "product":
            yield from (
                CartesianProduct(name, other.name)
                for other in db
                if other.name != name
            )
        else:
            output = LAMBDA_OUTPUTS[lambdas]
            yield from (ApplyFunction(name, "upper", (a,), output) for a in attrs)
            yield from (
                ApplyFunction(name, "concat", (a, b), output)
                for a in attrs
                for b in attrs
            )


@st.composite
def cases(draw):
    """A source and a pipeline; a step that fails to apply ends it.

    Nine steps in ten pick among the operators applicable to the state
    reached, so most pipelines run to the end, and two in three stay on
    the relation the step before acted on, so row-wise steps form runs.
    """
    names = draw(st.permutations(RELATION_NAMES))[: draw(st.integers(1, 2))]
    source = Database(draw(relations(name)) for name in names)
    ops = []
    db = source
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        lambdas = sum(isinstance(op, ApplyFunction) for op in ops)
        kinds = KINDS if lambdas < len(LAMBDA_OUTPUTS) else NO_LAMBDA_KINDS
        pools = {
            kind: pool
            for kind in dict.fromkeys(kinds)
            if (pool := list(candidates(db, kind, lambdas)))
        }
        if draw(st.integers(0, 9)):
            pools = {
                kind: applicable
                for kind, pool in pools.items()
                if (applicable := [op for op in pool if op.is_applicable(db)])
            }
        if ops and draw(st.integers(0, 2)):  # stay on the last step's relation
            last = getattr(ops[-1], "relation", None)
            pools = {
                kind: same
                for kind, pool in pools.items()
                if (same := [op for op in pool if getattr(op, "relation", None) == last])
            } or pools
        kind = draw(st.sampled_from([kind for kind in kinds if kind in pools]))
        op = draw(st.sampled_from(pools[kind]))
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
    try:
        expected = reference_compile(expression, source, REGISTRY)
    except Exception as exc:  # noqa: BLE001 - compared below
        with pytest.raises(type(exc)) as raised:
            compile_script(expression, source, REGISTRY)
        assert str(raised.value) == str(exc)
    else:
        assert compile_script(expression, source, REGISTRY) == expected
        event(f"sqlite runs fusing steps: {expected.text.count('-- one copy of')}")
        if "__tupelo_tmp2" in expected.text:
            event("scratch table renumbered past a taken name")
        if any(isinstance(op, Demote) and op.relation == "__meta" for op in expression):
            event("demote of __meta")

    db = source
    inexact = None  # why the engines cannot give the algebra's result
    clash, applies = folds_to_a_clash(source, source), True
    for op in expression:
        try:
            inexact = inexact or why_inexact(db, op)
            before, db = db, op.apply(db, REGISTRY)
        except Exception:  # noqa: BLE001 - the algebra cannot apply it
            applies = False
            break
        clash = clash or folds_to_a_clash(before, db)
    if clash:
        # compile meets the clash before any later fault, so sqlite declines
        event("names differing only in case")
        with pytest.raises(BackendUnsupportedError):
            execute_mapping(expression, source, backend="sqlite", registry=REGISTRY)
    if not applies:
        event("algebra fails")
        return
    if inexact is not None:
        event(inexact)
        return
    result = execute_mapping(expression, source, registry=REGISTRY)
    event(f"engine: {result.backend}")
    assert result.backend == ("algebra" if clash else "sqlite")
    assert result.database == db, f"{result.backend} diverged from the algebra"


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
    script = compile_script(expression, weights, REGISTRY)
    assert script.statement_count == 3


@pytest.mark.parametrize("backend", ["sqlite"])
def test_lambda_value_fault_raises_the_functions_error(weights, backend):
    expression = MappingExpression(
        [ApplyFunction("W", "lb_to_kg", ("lb",), "kg")]
    )
    with pytest.raises(SignatureError) as algebra:
        expression.apply(weights, REGISTRY)
    with pytest.raises(SignatureError) as engine:
        execute_mapping(expression, weights, backend=backend, registry=REGISTRY)
    assert str(engine.value) == str(algebra.value)


@pytest.mark.parametrize("backend", ["sqlite"])
def test_lambda_whose_output_a_later_step_drops_still_runs(weights, backend):
    """A drop of a computed column ends the run, so no λ is left out."""
    expression = MappingExpression(
        [
            ApplyFunction("W", "lb_to_kg", ("lb",), "kg"),
            DropAttribute("W", "kg"),
        ]
    )
    with pytest.raises(SignatureError):
        expression.apply(weights, REGISTRY)
    with pytest.raises(SignatureError):
        execute_mapping(expression, weights, backend=backend, registry=REGISTRY)


@pytest.mark.xfail(
    strict=True,
    reason="merge compiles to GROUP BY/MAX, which pools rows the algebra keeps apart",
)
@pytest.mark.parametrize("backend", ["sqlite"])
def test_merge_of_incompatible_rows(backend):
    # (1, "a") and (1, "b") disagree on v, so the algebra keeps both rows;
    # MAX(v) per key group leaves one.
    db = Database.single(Relation("R", ("k", "v"), [(1, "a"), (1, "b")]))
    expression = MappingExpression([Merge("R", "k")])
    result = execute_mapping(expression, db, backend=backend, registry=REGISTRY)
    assert result.database == expression.apply(db, REGISTRY)


@pytest.mark.parametrize("backend", ["sqlite"])
def test_product_whose_qualified_name_meets_a_column(backend):
    # k clashes, so R's k becomes R.k, which T already has: the second
    # R.k is named R.k#2 by the algebra and the compiled SELECT alike.
    db = Database(
        [
            Relation("R", ("k",), [(1,)]),
            Relation("T", ("k", "R.k"), [(2, 3)]),
        ]
    )
    expression = MappingExpression([CartesianProduct("R", "T")])
    result = execute_mapping(expression, db, backend=backend, registry=REGISTRY)
    assert result.database == expression.apply(db, REGISTRY)
