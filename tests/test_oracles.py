"""Brute-force oracles for the relational kernel and the search.

The kernel computes over interned token rows and memoised views that
derivations transplant from parent to child.  These property tests check
its answers against naive definitions over *value* rows, so they hold
whatever the kernel does internally:

* ``Database.contains`` — the search goal test (§2.3) — against its
  definition: every target relation has a same-named relation whose
  attributes cover the target's attributes and whose projection onto them
  covers the target's rows (the containment notion of Calì & Torlone);
* the TNF views — ``tnf_projections``, ``database_string``, and the token
  projections and column text counts the set and term-vector heuristics
  read — against a walk of ``sorted_rows()`` that renders each non-NULL
  cell with ``value_to_text``;
* every estimate of h1, h2, h3, euclid, euclid_norm, cosine and hybrid
  against its §3 definition over that walk's (REL, ATT, VALUE) triples.

Instances mix NULLs, duplicate values, empty relations and numeric-looking
text (``"1"`` beside ``1``), and are checked both fresh and after chains of
renames and projections taken from relations whose views are already warm.
The estimates are drawn over a small vocabulary shared by relation names,
attribute names and values, so tokens meet across levels and databases.

The search oracle is a breadth-first search over the same successor
function: under the blind heuristic h0, IDA*, RBFS and A* must return raw
paths exactly as long as the shallowest goal BFS finds.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import discover_mapping
from repro.errors import SchemaError
from repro.heuristics import make_heuristic
from repro.heuristics.setbased import token_projections
from repro.relational import (
    NULL,
    Database,
    Relation,
    database_string,
    is_null,
    tnf_projections,
    value_to_text,
)
from repro.relational.intern import token_text
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


#: names that are relation names, attribute names and value texts alike
WORDS = ("A", "B", "R", "x", "1")
words = st.sampled_from(WORDS)

#: cells over the shared words, few enough that rows often repeat a value
#: (so a drop collapses rows); the int 1 renders as the word "1"
word_cells = st.sampled_from([*WORDS, 0, 1, 2, NULL])


@st.composite
def relations(draw, name=None, names=identifiers, values=cells):
    rel_name = name if name is not None else draw(names)
    arity = draw(st.integers(min_value=1, max_value=3))
    attrs = draw(st.lists(names, min_size=arity, max_size=arity, unique=True))
    rows = draw(
        st.lists(st.tuples(*([values] * arity)), min_size=0, max_size=4)
    )
    return Relation(rel_name, attrs, rows)


@st.composite
def databases(draw, names=identifiers, values=cells):
    rel_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    return Database(
        [draw(relations(name=n, names=names, values=values)) for n in rel_names]
    )


def _warm(db: Database) -> None:
    """Fill the views that renames and projections transplant."""
    db.value_text_ids()
    for rel in db:
        rel.column_text_id_sets()
        rel.column_text_counts()
        rel.filled_attribute_ids()
        rel.has_nulls
        rel.sorted_rows_view()


@st.composite
def derived_databases(draw, names=identifiers, values=cells):
    """A database, possibly reached by renames/projections of a warm one."""
    return draw(derivations(draw(databases(names=names, values=values)), names))


@st.composite
def estimate_pairs(draw):
    """A state and a target over the shared words.

    Half the targets derive from the state's own starting database, so the
    two share relation names, attributes and values, and a view carried to
    the wrong column changes the inner product.
    """
    base = draw(databases(names=words, values=word_cells))
    if draw(st.booleans()):
        target = draw(derivations(base, words))
    else:
        target = draw(databases(names=words, values=word_cells))
    return draw(derivations(base, words)), target


@st.composite
def derivations(draw, db, names=identifiers):
    """*db* after up to four renames or drops, each of a warm database."""
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        _warm(db)
        rel = draw(st.sampled_from(db.relations))
        step = draw(st.sampled_from(["rename_rel", "rename_att", "drop"]))
        try:
            if step == "rename_rel":
                new = draw(names.filter(lambda n: not db.has_relation(n)))
                db = db.rename_relation(rel.name, new)
            elif step == "rename_att":
                old = draw(st.sampled_from(rel.attributes))
                new = draw(names.filter(lambda n: not rel.has_attribute(n)))
                db = db.with_relation(rel.rename_attribute(old, new))
            else:
                db = db.with_relation(
                    rel.drop_attribute(draw(st.sampled_from(rel.attributes)))
                )
        except SchemaError:
            continue  # the last column
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


def naive_projections(db: Database) -> tuple[set, set, set]:
    """π_REL, π_ATT and π_VALUE of the TNF, as string sets."""
    triples = naive_triples(db)
    return (
        {rel for rel, _att, _val in triples},
        {att for _rel, att, _val in triples},
        {val for _rel, _att, val in triples},
    )


def paper_round(value: float) -> int:
    """The paper's round(y), the integer closest to y (halves up; y >= 0)."""
    return math.floor(value + 0.5)


def naive_estimates(state: Database, target: Database, k: float) -> dict:
    """Every set and term-vector estimate from its §3 definition.

    The scaled forms take the cosine as ``x·t / (‖x‖·‖t‖)`` and the
    distance between unit vectors as ``√(2 − 2·cos)``, in floating point;
    the integers they start from are counted on the naive triples.
    """
    x, t = naive_projections(state), naive_projections(target)
    h1 = sum(len(wanted - have) for wanted, have in zip(t, x))
    h2 = sum(
        len(t[i] & x[j]) for i in range(3) for j in range(3) if i != j
    )
    xv, tv = Counter(naive_triples(state)), Counter(naive_triples(target))
    distance = math.sqrt(sum((xv[key] - tv[key]) ** 2 for key in xv.keys() | tv.keys()))
    x_norm = math.sqrt(sum(c * c for c in xv.values()))
    t_norm = math.sqrt(sum(c * c for c in tv.values()))
    dot = sum(xv[key] * tv[key] for key in xv.keys() & tv.keys())
    if not xv and not tv:  # both databases are empty of cells
        euclid_norm = cosine = 0
    elif not xv or not tv:
        euclid_norm = cosine = paper_round(k)
    else:
        similarity = dot / (x_norm * t_norm)
        euclid_norm = paper_round(k * math.sqrt(max(0.0, 2.0 - 2.0 * similarity)))
        cosine = paper_round(k * (1.0 - similarity))
    return {
        "h1": h1,
        "h2": h2,
        "h3": max(h1, h2),
        "euclid": paper_round(distance),
        "euclid_norm": euclid_norm,
        "cosine": cosine,
        "hybrid": max(h1, cosine),
    }


def check_estimates(state: Database, target: Database, k: float) -> None:
    """Every heuristic compiled for *target* scores *state* by definition."""
    for name, value in naive_estimates(state, target, k).items():
        scaled = name in ("euclid_norm", "cosine", "hybrid")
        heuristic = make_heuristic(name, target, k=k if scaled else None)
        assert heuristic(state) == value, name


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

    @given(db=derived_databases(names=words, values=word_cells))
    @settings(max_examples=100, deadline=None)
    def test_token_projections_match_naive_walk(self, db):
        texts = tuple(
            {token_text(token) for token in level}
            for level in token_projections(db)
        )
        assert texts == naive_projections(db)

    @given(
        db=st.one_of(
            derived_databases(), derived_databases(names=words, values=word_cells)
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_term_vector_matches_naive_walk(self, db):
        """The column text counts, keyed by (relation, attribute, text)."""
        vector = Counter()
        for rel in db.relations:
            for attr, column in zip(rel.attributes, rel.column_text_counts()):
                for text, count in column:
                    vector[rel.name, attr, token_text(text)] += count
        assert vector == Counter(naive_triples(db))

    @given(db=derived_databases())
    @settings(max_examples=100, deadline=None)
    def test_database_string_matches_naive_walk(self, db):
        assert database_string(db) == "".join(
            sorted(rel + att + val for rel, att, val in naive_triples(db))
        )


class TestEstimateOracle:
    """Each heuristic's estimate equals its §3 definition."""

    @given(pair=estimate_pairs(), k=st.sampled_from([7.0, 24.0]))
    @settings(max_examples=200, deadline=None)
    def test_estimates_match_definitions(self, pair, k):
        check_estimates(*pair, k)

    @given(state=derived_databases(), target=derived_databases())
    @settings(max_examples=60, deadline=None)
    def test_estimates_match_definitions_on_unrelated_pairs(self, state, target):
        check_estimates(state, target, 20.0)


# -- search optimality oracle ------------------------------------------------


def bfs_depth(problem: MappingProblem) -> int | None:
    """Length of a shortest operator path from the source to a goal.

    Breadth-first over ``problem.successors(node, last_op)``, deduplicated
    on ``(state, last_op)`` because successor generation depends on both
    (symmetry breaking reads the operator that produced the state).
    """
    root = problem.node(problem.initial_state())
    if problem.is_goal(root):
        return 0
    seen = {(root.state, None)}
    frontier = [(root, None)]
    depth = 0
    while frontier:
        depth += 1
        next_frontier = []
        for node, last_op in frontier:
            for op, child in problem.successors(node, last_op):
                key = (child.state, op)
                if key in seen:
                    continue
                if problem.is_goal(child):
                    return depth
                seen.add(key)
                next_frontier.append((child, op))
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
