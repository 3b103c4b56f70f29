"""Unit tests for the set-based heuristics h0-h3 (§3)."""

from __future__ import annotations

import pytest

from repro.heuristics import (
    BlindHeuristic,
    CrossLevelHeuristic,
    MaxSetHeuristic,
    MissingTokensHeuristic,
)
from repro.relational import Database, Relation


def db(name, attrs, rows):
    return Database.single(Relation(name, attrs, rows))


class TestBlind:
    def test_always_zero(self, db_a, db_b):
        h = BlindHeuristic(db_a)
        assert h(db_a) == 0
        assert h(db_b) == 0


class TestH1:
    def test_zero_on_target(self, db_a):
        assert MissingTokensHeuristic(db_a)(db_a) == 0

    def test_counts_missing_per_level(self):
        target = db("T", ("X", "Y"), [("u", "v")])
        state = db("S", ("X", "Z"), [("u", "w")])
        # missing: relation T, attribute Y, value v
        h = MissingTokensHeuristic(target)
        assert h(state) == 3

    def test_extra_state_tokens_free(self):
        """h1 only counts target tokens missing from the state."""
        target = db("T", ("X",), [("u",)])
        state = Database(
            [
                Relation("T", ("X", "Y", "Z"), [("u", "v", "w")]),
                Relation("Other", ("Q",), [(1,)]),
            ]
        )
        assert MissingTokensHeuristic(target)(state) == 0

    def test_matching_pair_equals_schema_size(self):
        """On Experiment 1 pairs, h1(source) = n missing attribute names."""
        from repro.workloads import matching_pair

        for n in (2, 5, 9):
            pair = matching_pair(n)
            assert MissingTokensHeuristic(pair.target)(pair.source) == n

    def test_value_level_by_text(self):
        target = db("T", ("X",), [(100,)])
        state = db("T", ("X",), [(100.0,)])
        # 100 and 100.0 render to the same text token
        assert MissingTokensHeuristic(target)(state) == 0


class TestH2:
    def test_zero_when_no_cross_level_overlap(self, db_a):
        assert CrossLevelHeuristic(db_a)(db_a) == 0

    def test_counts_attribute_needing_promotion(self):
        """A target attribute name appearing as a state data value."""
        target = db("T", ("ATL29",), [(100,)])
        state = db("T", ("Route",), [("ATL29",)])
        h = CrossLevelHeuristic(target)
        # ATL29: target-ATT token found among state VALUEs
        assert h(state) == 1

    def test_counts_relation_name_in_values(self):
        target = db("AirEast", ("Route",), [("ATL29",)])
        state = db("Prices", ("Carrier",), [("AirEast",)])
        # AirEast: target-REL token found among state VALUEs
        assert CrossLevelHeuristic(target)(state) == 1

    def test_flights_b_to_a_detects_promotions(self, db_a, db_b):
        """Routes are values in B but attributes in A: two promotions."""
        h = CrossLevelHeuristic(db_a)
        assert h(db_b) == 2  # ATL29, ORD17


class TestH3:
    def test_is_pointwise_max(self, db_a, db_b):
        h1 = MissingTokensHeuristic(db_a)
        h2 = CrossLevelHeuristic(db_a)
        h3 = MaxSetHeuristic(db_a)
        for state in (db_a, db_b):
            assert h3(state) == max(h1(state), h2(state))

    def test_zero_on_target(self, db_c):
        assert MaxSetHeuristic(db_c)(db_c) == 0


class TestCaching:
    """Estimates are memoised on the search problem's nodes."""

    def test_estimates_memoised(self, db_a, db_b):
        from repro.search import MappingProblem, SearchStats

        problem = MappingProblem(db_b, db_a)
        stats = SearchStats()
        node = problem.start(MissingTokensHeuristic(db_a))
        first = problem.estimate(node, stats)
        second = problem.estimate(node, stats)
        assert first == second == MissingTokensHeuristic(db_a)(db_b)
        assert stats.heuristic_cache_misses == 1  # one computed
        assert stats.heuristic_cache_hits == 1  # one served from the node

    def test_cache_capacity_bound(self, db_a, db_b, db_c):
        from repro.search import MappingProblem, SearchConfig, SearchStats

        problem = MappingProblem(db_b, db_a, config=SearchConfig(cache_capacity=1))
        stats = SearchStats()
        node_b = problem.start(MissingTokensHeuristic(db_a))
        problem.estimate(node_b, stats)
        problem.estimate(problem.node(db_c, stats), stats)  # evicts db_b
        problem.estimate(node_b, stats)  # recomputed, not a hit
        assert stats.heuristic_cache_evictions >= 1
        assert stats.heuristic_cache_hits == 0
        assert len(problem._nodes) <= 1

    def test_negative_estimate_rejected(self, db_a):
        class Broken(MissingTokensHeuristic):
            def estimate(self, state):
                return -1

        with pytest.raises(ValueError):
            Broken(db_a)(db_a)
