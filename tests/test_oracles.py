"""Brute-force oracles for the relational kernel and the search.

The kernel computes over interned token rows and memoised views that
derivations transplant from parent to child.  These property tests check
its answers against naive definitions over *value* rows, so they hold
whatever the kernel does internally:

* ``Database.contains`` — the search goal test (§2.3) — against its
  definition: every target relation has a same-named relation whose
  attributes cover the target's attributes and whose projection onto them
  covers the target's rows (the containment notion of Calì & Torlone);
* ``tnf_projections``, ``term_vector`` and ``database_string`` — the views
  every heuristic of §3 reads — against a walk of ``sorted_rows()`` that
  renders each non-NULL cell with ``value_to_text``.

Instances mix NULLs, duplicate values, empty relations and numeric-looking
text (``"1"`` beside ``1``), and are checked both fresh and after chains of
renames and projections taken from relations whose views are already warm.

The search oracle is a breadth-first search over the same successor
function: under the blind heuristic h0, IDA*, RBFS and A* must return raw
paths exactly as long as the shallowest goal BFS finds.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import discover_mapping
from repro.errors import NameCollisionError, SchemaError
from repro.heuristics.vector import term_vector
from repro.relational import (
    NULL,
    Database,
    Relation,
    database_string,
    is_null,
    tnf_projections,
    value_to_text,
)
from repro.search.problem import MappingProblem
from repro.workloads import flights_b, matching_pair
from repro.workloads.flights import (
    flights_a,
    flights_c,
    flights_registry,
    total_cost_correspondence,
)

# -- strategies -------------------------------------------------------------

identifiers = st.text(
    alphabet="ABCDEFGHabcdefgh_", min_size=1, max_size=5
)

cells = st.one_of(
    st.integers(min_value=-50, max_value=50),
    st.text(alphabet="xyzXYZ012", min_size=0, max_size=4),
    st.just(NULL),
)


@st.composite
def relations(draw, name=None):
    rel_name = name if name is not None else draw(identifiers)
    arity = draw(st.integers(min_value=1, max_value=3))
    attrs = draw(
        st.lists(identifiers, min_size=arity, max_size=arity, unique=True)
    )
    rows = draw(
        st.lists(st.tuples(*([cells] * arity)), min_size=0, max_size=4)
    )
    return Relation(rel_name, attrs, rows)


@st.composite
def databases(draw):
    names = draw(
        st.lists(identifiers, min_size=1, max_size=3, unique=True)
    )
    return Database([draw(relations(name=n)) for n in names])


def _warm(db: Database) -> None:
    """Fill the views that renames and projections transplant."""
    db.value_text_ids()
    for rel in db:
        rel.column_text_id_sets()
        rel.has_nulls
        rel.sorted_rows_view()


@st.composite
def derived_databases(draw):
    """A database, possibly reached by renames/projections of a warm one."""
    db = draw(databases())
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        _warm(db)
        rel = draw(st.sampled_from(db.relations))
        step = draw(st.sampled_from(["rename_rel", "rename_att", "drop"]))
        try:
            if step == "rename_rel":
                db = db.rename_relation(rel.name, draw(identifiers))
            elif step == "rename_att":
                old = draw(st.sampled_from(rel.attributes))
                renamed = rel.rename_attribute(old, draw(identifiers))
                db = db.with_relation(renamed)
            else:
                db = db.with_relation(
                    rel.drop_attribute(draw(st.sampled_from(rel.attributes)))
                )
        except (NameCollisionError, SchemaError):
            continue  # the drawn name is taken, or the last column
    return db


@st.composite
def containment_pairs(draw):
    """A state plus a target that is often, but not always, contained.

    The target projects a sample of the state's relations onto a sample of
    their attributes and rows; sometimes it also gains a drawn row or
    relation, or a relation is renamed away, which may break containment.
    """
    state = draw(derived_databases())
    chosen = draw(
        st.lists(st.sampled_from(state.relations), min_size=1, unique=True)
    )
    parts = []
    for rel in chosen:
        attrs = draw(
            st.lists(st.sampled_from(rel.attributes), min_size=1, unique=True)
        )
        rows = draw(
            st.lists(st.sampled_from(rel.sorted_rows_view()), unique=True)
            if rel.cardinality
            else st.just([])
        )
        positions = [rel.attribute_position(a) for a in attrs]
        projected = [tuple(row[p] for p in positions) for row in rows]
        if draw(st.booleans()):
            projected.append(draw(st.tuples(*([cells] * len(attrs)))))
        name = draw(identifiers) if draw(st.booleans()) else rel.name
        parts.append(Relation(name, attrs, projected))
    target = Database({rel.name: rel for rel in parts}.values())
    return state, target


# -- naive definitions --------------------------------------------------------


def naive_contains(state: Database, target: Database) -> bool:
    """The goal test from its definition, over value rows only."""
    for wanted in target.relations:
        same = [rel for rel in state.relations if rel.name == wanted.name]
        if not same:
            return False
        ours = same[0]
        if not set(wanted.attributes) <= set(ours.attributes):
            return False
        projection = {
            tuple(dict(zip(ours.attributes, row))[a] for a in wanted.attributes)
            for row in ours.rows
        }
        if not set(wanted.rows) <= projection:
            return False
    return True


def naive_triples(db: Database) -> list[tuple[str, str, str]]:
    """(REL, ATT, VALUE-text) for every non-NULL cell, walking value rows."""
    return [
        (rel.name, attr, value_to_text(value))
        for rel in db.relations
        for row in rel.sorted_rows()
        for attr, value in zip(rel.attributes, row)
        if not is_null(value)
    ]


# -- oracles -------------------------------------------------------------------


class TestContainmentOracle:
    @given(pair=containment_pairs())
    @settings(max_examples=150, deadline=None)
    def test_contains_matches_definition(self, pair):
        state, target = pair
        assert state.contains(target) == naive_contains(state, target)

    @given(state=derived_databases(), target=databases())
    @settings(max_examples=80, deadline=None)
    def test_contains_matches_definition_on_unrelated_pairs(self, state, target):
        assert state.contains(target) == naive_contains(state, target)
        assert target.contains(state) == naive_contains(target, state)


class TestTnfViewOracle:
    @given(db=derived_databases())
    @settings(max_examples=100, deadline=None)
    def test_tnf_projections_match_naive_walk(self, db):
        triples = naive_triples(db)
        assert tnf_projections(db) == (
            frozenset(rel for rel, _att, _val in triples),
            frozenset(att for _rel, att, _val in triples),
            frozenset(val for _rel, _att, val in triples),
        )

    @given(db=derived_databases())
    @settings(max_examples=100, deadline=None)
    def test_term_vector_matches_naive_walk(self, db):
        assert term_vector(db) == Counter(naive_triples(db))

    @given(db=derived_databases())
    @settings(max_examples=100, deadline=None)
    def test_database_string_matches_naive_walk(self, db):
        assert database_string(db) == "".join(
            sorted(rel + att + val for rel, att, val in naive_triples(db))
        )


# -- search optimality oracle ------------------------------------------------


def bfs_depth(problem: MappingProblem) -> int | None:
    """Length of a shortest operator path from the source to a goal.

    Breadth-first over ``problem.successors(state, last_op)``, deduplicated
    on ``(state, last_op)`` because successor generation depends on both
    (symmetry breaking reads the operator that produced the state).
    """
    root = (problem.initial_state(), None)
    if problem.is_goal(root[0]):
        return 0
    seen = {root}
    frontier = [root]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for state, last_op in frontier:
            for op, child in problem.successors(state, last_op):
                node = (child, op)
                if node in seen:
                    continue
                if problem.is_goal(child):
                    return depth
                seen.add(node)
                next_frontier.append(node)
        frontier = next_frontier
    return None


def _optimality_cases():
    for n in range(1, 5):
        pair = matching_pair(n)
        yield pytest.param(
            pair.source, pair.target, (), None, n, id=f"synthetic n={n}"
        )
    yield pytest.param(
        flights_b(), flights_a(), (), flights_registry(), 6, id="flights B->A"
    )
    yield pytest.param(
        flights_b(),
        flights_c(),
        (total_cost_correspondence(),),
        flights_registry(),
        3,
        id="flights B->C",
    )


@pytest.mark.parametrize(
    "source, target, correspondences, registry, depth", _optimality_cases()
)
def test_blind_search_returns_optimal_raw_paths(
    source, target, correspondences, registry, depth
):
    problem = MappingProblem(
        source, target, correspondences=correspondences, registry=registry
    )
    assert bfs_depth(problem) == depth
    for algorithm in ("ida", "rbfs", "astar"):
        result = discover_mapping(
            source,
            target,
            algorithm=algorithm,
            heuristic="h0",
            correspondences=correspondences,
            registry=registry,
            simplify=False,
        )
        assert result.found, algorithm
        assert len(result.expression.operators) == depth, algorithm
