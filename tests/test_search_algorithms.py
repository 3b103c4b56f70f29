"""Unit tests for IDA*, RBFS, A*, and greedy best-first search."""

from __future__ import annotations

import pytest

from repro.errors import MappingNotFound, SearchBudgetExceeded
from repro.fira import MappingExpression
from repro.heuristics import make_heuristic
from repro.relational import Database, Relation
from repro.search import (
    MappingProblem,
    SearchConfig,
    SearchStats,
    a_star,
    greedy,
    ida_star,
    rbfs,
)
from repro.workloads import matching_pair

ALGORITHMS = {
    "ida": ida_star,
    "rbfs": rbfs,
    "astar": a_star,
    "greedy": greedy,
}


def solve(algorithm, source, target, heuristic="h1", budget=100_000, **kwargs):
    problem = MappingProblem(
        source, target, config=SearchConfig(max_states=budget), **kwargs
    )
    h = make_heuristic(heuristic, target)
    stats = SearchStats(budget=budget)
    ops = ALGORITHMS[algorithm](problem, h, stats)
    return ops, stats


class TestAllAlgorithms:
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_trivial_goal_zero_ops(self, algorithm, db_a):
        ops, stats = solve(algorithm, db_a, db_a)
        assert ops == []
        assert stats.states_examined == 1

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_matching_pair_solved(self, algorithm):
        pair = matching_pair(4)
        ops, _stats = solve(algorithm, pair.source, pair.target)
        result = MappingExpression(ops).apply(pair.source)
        assert result.contains(pair.target.relation("R") and pair.target)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_flights_b_to_a(self, algorithm, db_a, db_b):
        ops, _stats = solve(algorithm, db_b, db_a, heuristic="euclid_norm")
        assert MappingExpression(ops).apply(db_b).contains(db_a)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_unsolvable_raises(self, algorithm):
        source = Database.single(Relation("R", ("A",), [("x",)]))
        target = Database.single(Relation("R", ("A",), [("unreachable",)]))
        with pytest.raises(MappingNotFound):
            solve(algorithm, source, target)

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_budget_enforced(self, algorithm):
        pair = matching_pair(8)
        with pytest.raises(SearchBudgetExceeded):
            solve(algorithm, pair.source, pair.target, heuristic="h0", budget=20)



class TestOptimality:
    """With the admissible-in-practice h1 on matching tasks, IDA* and A*
    return shortest solutions (n renames)."""

    @pytest.mark.parametrize("algorithm", ["ida", "astar"])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_shortest_path_on_matching(self, algorithm, n):
        pair = matching_pair(n)
        ops, _ = solve(algorithm, pair.source, pair.target)
        assert len(ops) == n

    def test_ida_matches_reference_expression(self):
        pair = matching_pair(4)
        ops, _ = solve("ida", pair.source, pair.target)
        assert MappingExpression(ops) == pair.reference_expression()


class TestCostAccounting:
    def test_h1_examines_linear_states_on_matching(self):
        pair = matching_pair(10)
        _ops, stats = solve("rbfs", pair.source, pair.target)
        assert stats.states_examined <= 3 * 10 + 5

    def test_blind_ida_explodes_exponentially(self):
        small = matching_pair(3)
        big = matching_pair(5)
        _, small_stats = solve("ida", small.source, small.target, heuristic="h0")
        _, big_stats = solve("ida", big.source, big.target, heuristic="h0")
        assert big_stats.states_examined > 10 * small_stats.states_examined

    def test_ida_iterations_counted(self):
        pair = matching_pair(3)
        _, stats = solve("ida", pair.source, pair.target, heuristic="h0")
        assert stats.iterations >= 3  # bounds 0..3 at least

    def test_astar_examines_no_more_than_ida(self):
        pair = matching_pair(5)
        _, ida_stats = solve("ida", pair.source, pair.target, heuristic="h0")
        _, astar_stats = solve("astar", pair.source, pair.target, heuristic="h0")
        assert astar_stats.states_examined <= ida_stats.states_examined

    def test_max_depth_recorded(self):
        pair = matching_pair(4)
        _, stats = solve("rbfs", pair.source, pair.target)
        assert stats.max_depth >= 4
