"""Unit tests for the memoised derived views on Relation/Database values."""

from __future__ import annotations

import pytest

from repro.errors import UnknownAttributeError
from repro.relational import (
    Database,
    Relation,
    database_string,
    tnf_cells,
    token_text,
)
from repro.relational.tnf import tnf_projections, tnf_triples


def texts(token_ids) -> frozenset[str]:
    return frozenset(token_text(i) for i in token_ids)


@pytest.fixture
def rel():
    return Relation("R", ("A", "B"), [(1, "x"), (2, "y")])


@pytest.fixture
def db(rel):
    return Database([rel, Relation("S", ("C",), [(3,)])])


class TestRelationViews:
    def test_views_computed_once(self, rel):
        """Repeated calls return the identical stored object."""
        assert rel.value_set() is rel.value_set()
        assert rel.attribute_set is rel.attribute_set
        assert rel.column_values("A") is rel.column_values("A")
        assert rel.column_text_ids("A") is rel.column_text_ids("A")
        assert rel.sorted_rows_view() is rel.sorted_rows_view()

    def test_views_are_immutable_containers(self, rel):
        assert isinstance(rel.value_set(), frozenset)
        assert isinstance(rel.column_text_ids("A"), frozenset)
        assert isinstance(rel.column_text_id_sets(), tuple)
        assert isinstance(rel.sorted_rows_view(), tuple)

    def test_column_texts_contents(self, rel):
        assert texts(rel.column_text_ids("A")) == frozenset({"1", "2"})
        assert texts(rel.column_text_ids("B")) == frozenset({"x", "y"})

    def test_column_texts_unknown_attribute(self, rel):
        with pytest.raises(UnknownAttributeError):
            rel.column_text_ids("Nope")

    def test_sorted_rows_returns_a_private_list(self, rel):
        """Mutating the list sorted_rows() hands out can't poison the view."""
        rows = rel.sorted_rows()
        assert rows == list(rel.sorted_rows_view())
        rows.append(("junk",))
        assert rel.sorted_rows() == list(rel.sorted_rows_view())
        assert ("junk",) not in rel.sorted_rows_view()

    def test_include_null_variants_cached_separately(self):
        from repro.relational import NULL

        rel = Relation("R", ("A",), [(1,), (NULL,)])
        assert NULL not in rel.value_set()
        assert NULL in rel.value_set(include_null=True)
        assert rel.value_set() is not rel.value_set(include_null=True)

    def test_derived_relations_start_cold_and_correct(self, rel):
        warm = rel.column_text_ids("A")
        renamed = rel.rename_attribute("A", "Z")
        assert renamed.column_text_ids("Z") == warm
        assert rel.column_text_ids("A") is warm  # original untouched
        with pytest.raises(UnknownAttributeError):
            renamed.column_text_ids("A")

    def test_column_text_counts_follow_renames_and_rebuild_after_drops(self):
        """Renames carry the counts, permuted; a drop that collapses rows
        counts afresh."""
        rel = Relation("R", ("a", "b", "c"), [("x", "y", 1), ("x", "z", 1)])

        def counts(derived: Relation) -> list[dict[int, int]]:
            return [dict(column) for column in derived.column_text_counts()]

        def cold(derived: Relation) -> list[dict[int, int]]:
            return counts(Relation(derived.name, derived.attributes, derived.rows))

        warm = rel.column_text_counts()
        moved = rel.rename_attribute("a", "d")  # a's column moves last
        assert moved.attributes == ("b", "c", "d")
        assert counts(moved) == cold(moved)
        assert moved.column_text_counts()[2] is warm[0]
        assert rel.renamed("S").column_text_counts() is warm
        collapsed = rel.drop_attribute("b")  # the two rows become one
        assert collapsed.cardinality == 1
        assert counts(collapsed) == cold(collapsed)

    def test_filled_attribute_ids_skip_all_null_columns(self):
        from repro.relational import NULL

        rel = Relation("R", ("a", "b", "c"), [(1, NULL, NULL), (NULL, NULL, 2)])
        assert texts(rel.filled_attribute_ids()) == frozenset({"a", "c"})
        renamed = rel.rename_attribute("b", "d")
        assert texts(renamed.filled_attribute_ids()) == frozenset({"a", "c"})
        assert texts(Relation("E", ("a",)).filled_attribute_ids()) == frozenset()


class TestDatabaseViews:
    def test_views_computed_once(self, db):
        assert db.attribute_names() is db.attribute_names()
        assert db.value_set() is db.value_set()
        assert db.value_text_ids() is db.value_text_ids()

    def test_value_texts_contents(self, db):
        assert texts(db.value_text_ids()) == frozenset({"1", "2", "3", "x", "y"})

    def test_tnf_views_memoised(self, db):
        assert tnf_cells(db) is tnf_cells(db)
        assert tnf_triples(db) is tnf_triples(db)
        assert database_string(db) is database_string(db)
        assert tnf_projections(db) is tnf_projections(db)

    def test_tnf_views_are_immutable(self, db):
        assert isinstance(tnf_cells(db), tuple)
        assert isinstance(tnf_triples(db), tuple)
        assert isinstance(database_string(db), str)
        rels, atts, vals = tnf_projections(db)
        assert all(isinstance(s, frozenset) for s in (rels, atts, vals))

    def test_with_relation_does_not_corrupt_views(self, db):
        names = db.attribute_names()
        bigger = db.with_relation(Relation("T", ("D",), [(4,)]))
        assert "D" in bigger.attribute_names()
        assert db.attribute_names() is names
        assert "D" not in names

