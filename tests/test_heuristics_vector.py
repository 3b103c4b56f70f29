"""Unit tests for the term-vector heuristics (§3).

The heuristics read a database's term vector as per-column counts by value
text id (``Relation.column_text_counts``) and need only three integers of
it: the state's sum of squared counts, the target's, and their inner
product (``target_columns`` and ``state_sums``).  ``tests/test_oracles.py``
checks every estimate against its §3 definition on drawn databases.
"""

from __future__ import annotations

import math

import pytest

from repro.heuristics import (
    CosineHeuristic,
    EuclideanHeuristic,
    NormalizedEuclideanHeuristic,
)
from repro.heuristics.vector import state_sums, target_columns
from repro.relational import Database, Relation
from repro.relational.intern import intern_value


def db(name, attrs, rows):
    return Database.single(Relation(name, attrs, rows))


def counts(database, relation, attribute):
    """The term-vector components of (relation, attribute, ·), by text."""
    rel = database.relation(relation)
    return dict(rel.column_text_counts()[rel.attribute_position(attribute)])


def sums(state, target):
    """(Σx², Σt², x·t) of *state* against *target*."""
    columns, target_sum_sq = target_columns(target)
    sum_sq, dot = state_sums(state, columns)
    return sum_sq, target_sum_sq, dot


class TestTermVector:
    def test_counts_triples(self, db_c):
        assert counts(db_c, "AirEast", "Route")[intern_value("ATL29")] == 1
        total = sum(
            c
            for rel in db_c
            for column in rel.column_text_counts()
            for _text, c in column
        )
        assert total == 12

    def test_repeated_triples_counted(self):
        d = db("R", ("A", "B"), [("x", 1), ("x", 2)])
        assert counts(d, "R", "A") == {intern_value("x"): 2}

    def test_values_textified(self):
        d = db("R", ("A",), [(100,), ("100",)])
        assert counts(d, "R", "A") == {intern_value("100"): 2}


class TestVectorMath:
    def test_distance_to_self_zero(self, db_b):
        sum_sq, target_sum_sq, dot = sums(db_b, db_b)
        assert sum_sq + target_sum_sq - 2 * dot == 0

    def test_distance_simple(self):
        left = db("R", ("A",), [("x",)])
        right = db("R", ("A",), [("y",)])
        sum_sq, target_sum_sq, dot = sums(left, right)
        assert math.sqrt(sum_sq + target_sum_sq - 2 * dot) == pytest.approx(
            math.sqrt(2)
        )

    def test_norm(self):
        sum_sq, _, _ = sums(db("R", ("A",), [("x",), ("y",)]), db("S", ("A",), []))
        assert math.sqrt(sum_sq) == pytest.approx(math.sqrt(2))

    def test_cosine_identity(self, db_a):
        sum_sq, target_sum_sq, dot = sums(db_a, db_a)
        assert dot / (math.sqrt(sum_sq) * math.sqrt(target_sum_sq)) == pytest.approx(1.0)

    def test_cosine_orthogonal(self):
        _, _, dot = sums(db("R", ("A",), [("x",)]), db("R", ("A",), [("y",)]))
        assert dot == 0

    def test_cosine_range(self, db_a, db_b):
        sum_sq, target_sum_sq, dot = sums(db_a, db_b)
        assert 0.0 <= dot / (math.sqrt(sum_sq) * math.sqrt(target_sum_sq)) <= 1.0


class TestEuclideanHeuristic:
    def test_zero_on_target(self, db_b):
        assert EuclideanHeuristic(db_b)(db_b) == 0

    def test_counts_differing_cells(self):
        target = db("R", ("A",), [("x",)])
        state = db("R", ("A",), [("y",)])
        assert EuclideanHeuristic(target)(state) == 1  # round(sqrt(2))

    def test_no_scaling_constant(self, db_a):
        h = EuclideanHeuristic(db_a)
        assert not hasattr(h, "k")


class TestNormalizedEuclidean:
    def test_zero_on_target(self, db_b):
        assert NormalizedEuclideanHeuristic(db_b)(db_b) == 0

    def test_bounded_by_k_times_sqrt2(self, db_a, db_b):
        h = NormalizedEuclideanHeuristic(db_a, k=7)
        # unit vectors differ by at most sqrt(2)
        assert 0 <= h(db_b) <= round(7 * math.sqrt(2)) + 1

    def test_paper_default_k(self, db_a):
        assert NormalizedEuclideanHeuristic(db_a).k == 7

    def test_scale_invariance_of_direction(self):
        """A state with the same cell *proportions* scores 0."""
        target = db("R", ("A",), [("x",)])
        doubled = db("R", ("A",), [("x",)])  # same single triple
        assert NormalizedEuclideanHeuristic(target, k=10)(doubled) == 0


class TestCosineHeuristic:
    def test_zero_on_target(self, db_c):
        assert CosineHeuristic(db_c)(db_c) == 0

    def test_max_for_disjoint(self):
        target = db("R", ("A",), [("x",)])
        state = db("R", ("A",), [("y",)])
        assert CosineHeuristic(target, k=5)(state) == 5

    def test_paper_default_k(self, db_a):
        assert CosineHeuristic(db_a).k == 5

    def test_decreases_toward_target(self, db_a, db_b):
        """Promoting routes moves B's vector closer to A's."""
        from repro.fira import Promote

        h = CosineHeuristic(db_a, k=24)
        promoted = Promote("Prices", "Route", "Cost").apply(db_b)
        assert h(promoted) <= h(db_b)
