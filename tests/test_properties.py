"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

from hypothesis import assume, given, settings, strategies as st

from repro.fira import (
    DropAttribute,
    Merge,
    Promote,
    RenameAttribute,
    merge_group,
    parse_operator,
    tuples_compatible,
)
from repro.fira.combine import mergeable_positions
from repro.heuristics import (
    HEURISTIC_NAMES,
    levenshtein,
    make_heuristic,
)
from repro.relational import (
    NULL,
    Database,
    Relation,
    database_string,
    tnf_decode,
    tnf_encode,
)
from repro.relational.csvio import relation_from_csv, relation_to_csv

# -- strategies -------------------------------------------------------------

identifiers = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_",
    min_size=1,
    max_size=6,
)

values = st.one_of(
    st.integers(min_value=-999, max_value=999),
    st.text(alphabet="abcdefgXYZ0123456789", min_size=0, max_size=6),
    st.booleans(),
)

values_or_null = st.one_of(values, st.just(NULL))


@st.composite
def relations(draw, with_nulls: bool = False, min_rows: int = 0):
    name = draw(identifiers)
    n_attrs = draw(st.integers(min_value=1, max_value=4))
    attrs = draw(
        st.lists(
            identifiers, min_size=n_attrs, max_size=n_attrs, unique=True
        )
    )
    cell = values_or_null if with_nulls else values
    rows = draw(
        st.lists(
            st.tuples(*([cell] * n_attrs)), min_size=min_rows, max_size=5
        )
    )
    return Relation(name, attrs, rows)


@st.composite
def databases(draw, with_nulls: bool = False):
    n = draw(st.integers(min_value=1, max_value=3))
    rels = []
    names = set()
    for _ in range(n):
        rel = draw(relations(with_nulls=with_nulls))
        if rel.name not in names:
            names.add(rel.name)
            rels.append(rel)
    return Database(rels)


# -- relational invariants ------------------------------------------------------


class TestRelationalProperties:
    @given(relations())
    def test_attribute_order_irrelevant(self, rel):
        shuffled_attrs = tuple(reversed(rel.attributes))
        positions = [rel.attribute_position(a) for a in shuffled_attrs]
        rebuilt = Relation(
            rel.name,
            shuffled_attrs,
            [tuple(row[p] for p in positions) for row in rel.rows],
        )
        assert rebuilt == rel
        assert hash(rebuilt) == hash(rel)

    @given(relations(min_rows=1))
    def test_projection_contained(self, rel):
        subset = rel.attributes[: max(1, rel.arity // 2)]
        assert rel.contains(rel.project(subset))

    @given(relations())
    def test_rename_roundtrip(self, rel):
        attr = rel.attributes[0]
        fresh = attr + "_renamed"
        assert rel.rename_attribute(attr, fresh).rename_attribute(
            fresh, attr
        ) == rel

    @given(databases())
    def test_containment_reflexive(self, db):
        assert db.contains(db)

    @given(databases(with_nulls=True))
    def test_database_equality_consistent_with_hash(self, db):
        clone = Database(
            Relation(r.name, r.attributes, r.rows) for r in db
        )
        assert clone == db
        assert hash(clone) == hash(db)


class TestTnfProperties:
    @given(databases())
    def test_roundtrip_null_free(self, db):
        non_empty = Database(rel for rel in db if rel.cardinality > 0)
        assert tnf_decode(tnf_encode(non_empty)) == non_empty

    @given(databases(with_nulls=True))
    def test_encoding_deterministic(self, db):
        assert tnf_encode(db) == tnf_encode(db)
        assert database_string(db) == database_string(db)

    @given(databases(with_nulls=True))
    def test_cell_count_bounded(self, db):
        tnf = tnf_encode(db)
        assert tnf.cardinality <= sum(
            rel.arity * rel.cardinality for rel in db
        )


class TestCsvProperties:
    @given(relations())
    def test_roundtrip(self, rel):
        # restrict to values whose text form survives CSV parsing
        safe = all(
            not (isinstance(v, str) and _parses_differently(v))
            for row in rel.rows
            for v in row
        )
        if safe:
            assert relation_from_csv(rel.name, relation_to_csv(rel)) == rel


def _parses_differently(text: str) -> bool:
    from repro.relational.csvio import parse_value

    return parse_value(text) != text or text != text.strip()


# -- merge invariants ----------------------------------------------------------


class TestMergeProperties:
    @given(st.lists(st.tuples(values_or_null, values_or_null), max_size=6))
    def test_never_grows(self, rows):
        assert len(merge_group(rows)) <= max(len(set(rows)), 0) or not rows

    @given(st.lists(st.tuples(values_or_null, values_or_null), max_size=6))
    def test_idempotent(self, rows):
        once = merge_group(rows)
        assert merge_group(once) == once

    @given(st.lists(st.tuples(values_or_null, values_or_null), max_size=6))
    def test_every_input_covered(self, rows):
        merged = merge_group(rows)
        for row in rows:
            assert any(tuples_compatible(row, out) for out in merged)

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda arity: st.lists(
                # few distinct values and mostly NULL: keys repeat, NULL
                # keys occur, and NULL-compatible pairs are common
                st.tuples(*[st.sampled_from((NULL, NULL, NULL, "x", "y", 1))] * arity),
                min_size=1,
                max_size=7,
            ).map(lambda rows: Relation("R", [f"A{i}" for i in range(arity)], rows))
        )
    )
    @settings(max_examples=300)
    def test_mergeable_positions_are_exactly_the_effective_merges(self, rel):
        db = Database.single(rel)
        mergeable = mergeable_positions(rel)
        for pos, attr in enumerate(rel.attributes):
            assert (Merge(rel.name, attr).apply(db) != db) == (pos in mergeable)


# -- string view ------------------------------------------------------------------


class TestLevenshteinProperties:
    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric(self, a, b):
        assert levenshtein(a, b) == levenshtein(b, a)

    @given(st.text(max_size=12))
    def test_identity(self, a):
        assert levenshtein(a, a) == 0

    @given(st.text(max_size=8), st.text(max_size=8), st.text(max_size=8))
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_bounded_by_longer(self, a, b):
        assert levenshtein(a, b) <= max(len(a), len(b))


# -- heuristics ---------------------------------------------------------------------


class TestHeuristicProperties:
    @given(databases(), databases(with_nulls=True))
    @settings(max_examples=40)
    def test_non_negative_everywhere(self, target, state):
        for name in HEURISTIC_NAMES:
            assert make_heuristic(name, target)(state) >= 0

    @given(databases())
    @settings(max_examples=40)
    def test_zero_at_target(self, target):
        # h2 (and hence h3) measures cross-level token coincidences and is
        # legitimately non-zero on targets whose own relation/attribute/
        # value names collide — see test_heuristics_setbased for the
        # deterministic cases.
        for name in HEURISTIC_NAMES:
            if name in ("h2", "h3"):
                continue
            assert make_heuristic(name, target)(target) == 0

    @given(databases())
    @settings(max_examples=40)
    def test_h2_at_target_counts_self_coincidences(self, target):
        h2 = make_heuristic("h2", target)
        from repro.relational import tnf_projections

        rels, atts, values = tnf_projections(target)
        expected = (
            len(rels & atts) * 2 + len(rels & values) * 2 + len(atts & values) * 2
        )
        assert h2(target) == expected


# -- SQL round-trips --------------------------------------------------------------


@st.composite
def sqlite_relations(draw, min_rows: int = 0):
    """Relations SQLite keeps as they are under typed DDL.

    Each column holds one type, because a TEXT column's affinity turns an
    int into text; no cell is a boolean, which SQLite stores as an int (an
    int 1 or 0 is one when the intern pool met the bool it equals first);
    and no two attribute names differ only in case, which SQLite folds.
    """
    name = draw(identifiers)
    n_attrs = draw(st.integers(min_value=1, max_value=4))
    attrs = draw(
        st.lists(
            identifiers,
            min_size=n_attrs,
            max_size=n_attrs,
            unique_by=str.lower,
        )
    )
    kinds = (
        st.integers(min_value=-999, max_value=999),
        st.text(alphabet="abcdefgXYZ0123456789", min_size=0, max_size=6),
    )
    columns = [draw(st.sampled_from(kinds)) for _ in attrs]
    rows = draw(st.lists(st.tuples(*columns), min_size=min_rows, max_size=5))
    rel = Relation(name, attrs, rows)
    assume(not any(isinstance(v, bool) for row in rel.rows for v in row))
    return rel


class TestSqlProperties:
    @given(sqlite_relations())
    @settings(max_examples=60)
    def test_generated_ddl_recreates_relation(self, rel):
        import sqlite3

        from repro.relational.sql import relation_to_sql

        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(relation_to_sql(rel))
            cursor = conn.execute(f'SELECT * FROM "{rel.name}"')
            recreated = Relation(
                rel.name, [d[0] for d in cursor.description], cursor
            )
        finally:
            conn.close()
        assert recreated == rel

    @given(sqlite_relations(min_rows=1))
    @settings(max_examples=40)
    def test_compiled_drop_matches_algebra(self, rel):
        from repro.backends import StatementLimiter, execute_mapping
        from repro.backends.sqlite_backend import execute_script
        from repro.fira import DropAttribute, MappingExpression, compile_operator
        from repro.fira.sqlcompile import SqlScript
        from repro.relational.dialect import why_unrepresentable

        if rel.arity < 2:
            return
        db = Database.single(rel)
        op = DropAttribute(rel.name, rel.attributes[0])
        if why_unrepresentable(db, db) is not None:
            # a column named TRUE or FALSE, which a table copy renames
            executed = execute_mapping(MappingExpression([op]), db)
            assert executed.backend == "algebra"
            assert executed.database == op.apply(db)
            return
        statements = compile_operator(op, db)
        script = SqlScript(statements=tuple(statements), text="")
        executed = execute_script(script, db, StatementLimiter())
        assert executed == op.apply(db)


# -- operators preserve well-formedness -----------------------------------------------


class TestOperatorProperties:
    @given(relations(min_rows=1))
    @settings(max_examples=60)
    def test_promote_preserves_cardinality(self, rel):
        db = Database.single(rel)
        op = Promote(rel.name, rel.attributes[0], rel.attributes[-1])
        if op.is_applicable(db):
            out = op.apply(db)
            assert out.relation(rel.name).cardinality == rel.cardinality

    @given(relations(min_rows=1, with_nulls=True))
    @settings(max_examples=60)
    def test_merge_never_grows(self, rel):
        db = Database.single(rel)
        out = Merge(rel.name, rel.attributes[0]).apply(db)
        assert out.relation(rel.name).cardinality <= rel.cardinality

    @given(relations(min_rows=1))
    @settings(max_examples=60)
    def test_drop_then_contains_projection(self, rel):
        if rel.arity < 2:
            return
        db = Database.single(rel)
        out = DropAttribute(rel.name, rel.attributes[0]).apply(db)
        assert rel.contains(out.relation(rel.name))

    @given(identifiers, identifiers, identifiers)
    def test_rename_parses_back(self, rel_name, old, new):
        op = RenameAttribute(rel_name, old, new)
        assert parse_operator(str(op)) == op
