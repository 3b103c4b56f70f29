"""Unit tests for the MappingProblem node table.

One node per interned state holds its successor entries (the
transposition table), its goal verdict and its heuristic estimate.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import SearchError
from repro.fira import RenameAttribute
from repro.heuristics import make_heuristic
from repro.relational import Database
from repro.search import ALGORITHMS, MappingProblem, SearchConfig, SearchStats
from repro.workloads import flights_a, flights_b, matching_pair


def make_problem(**config_kwargs) -> MappingProblem:
    pair = matching_pair(2)
    return MappingProblem(
        pair.source, pair.target, config=SearchConfig(**config_kwargs)
    )


def root_of(problem: MappingProblem):
    return problem.node(problem.initial_state())


class TestSuccessorCache:
    def test_second_call_is_a_hit(self):
        problem = make_problem()
        stats = SearchStats()
        root = root_of(problem)
        first = problem.successors(root, None, stats)
        second = problem.successors(root, None, stats)
        assert stats.successor_cache_misses == 1
        assert stats.successor_cache_hits == 1
        assert first is second  # the memoised tuple itself, never a copy
        assert isinstance(first, tuple)

    def test_generated_counts_match_on_hits(self):
        """states_generated counts successors *delivered*, hit or miss."""
        problem = make_problem()
        stats = SearchStats()
        root = root_of(problem)
        out = problem.successors(root, None, stats)
        problem.successors(root, None, stats)
        assert stats.states_generated == 2 * len(out)

    def test_symmetry_key_canonicalises_last_op(self):
        """Operators sharing the symmetry-relevant parts share one entry."""
        problem = make_problem()
        stats = SearchStats()
        root = root_of(problem)
        ops = [op for op, _ in problem.successors(root, None, stats)]
        renames = [op for op in ops if isinstance(op, RenameAttribute)]
        assert renames, "matching workload must propose attribute renames"
        base = renames[0]
        twin = dataclasses.replace(base, new=base.new + "_other")
        k_base = problem._symmetry_key(base)
        assert k_base == ("rename_att", base.relation, base.old)
        # one shared key object: nodes match keys by identity
        assert problem._symmetry_key(twin) is k_base
        # same key => the second query under the twin operator is a hit
        problem.successors(root, base, stats)
        hits_before = stats.successor_cache_hits
        problem.successors(root, twin, stats)
        assert stats.successor_cache_hits == hits_before + 1

    def test_second_key_kept_beside_the_first(self):
        """A state reached under two symmetry keys memoises both."""
        problem = make_problem()
        stats = SearchStats()
        root = root_of(problem)
        ops = [op for op, _ in problem.successors(root, None, stats)]
        rename = next(op for op in ops if isinstance(op, RenameAttribute))
        under_rename = problem.successors(root, rename, stats)
        assert root.key is None and root.more is not None
        assert problem.successors(root, None, stats) is root.entries
        assert problem.successors(root, rename, stats) is under_rename
        assert stats.successor_cache_misses == 2
        assert stats.successor_cache_hits == 2

    def test_no_symmetry_breaking_collapses_keys(self):
        problem = make_problem(break_symmetry=False)
        ops = [op for op, _ in problem.successors(root_of(problem), None, SearchStats())]
        renames = [op for op in ops if isinstance(op, RenameAttribute)]
        assert problem._symmetry_key(renames[0]) is None
        assert problem._symmetry_key(None) is None

    def test_clear_caches(self):
        problem = make_problem()
        problem.start(make_heuristic("h1", problem.target))
        root = root_of(problem)
        stats = SearchStats()
        problem.successors(root, None, stats)
        problem.is_goal(root, stats)
        problem.estimate(root, stats)
        assert problem._nodes and root.entries is not None
        problem.clear_caches()
        assert not problem._nodes
        assert not problem._relation_move_cache
        # a node still held outside the table keeps no memo
        assert root.entries is None and root.goal is None and root.h is None


class TestGoalCache:
    def test_false_verdicts_are_cached_hits(self):
        problem = make_problem()
        stats = SearchStats()
        root = root_of(problem)
        assert problem.is_goal(root, stats) is False
        assert problem.is_goal(root, stats) is False
        assert root.goal is False
        assert stats.goal_cache_misses == 1
        assert stats.goal_cache_hits == 1

    def test_true_verdicts_are_cached_hits(self):
        problem = make_problem()
        stats = SearchStats()
        goal = problem.node(problem.target)
        assert problem.is_goal(goal, stats) is True
        assert problem.is_goal(goal, stats) is True
        assert stats.goal_cache_misses == 1
        assert stats.goal_cache_hits == 1

    def test_timing_recorded(self):
        problem = make_problem()
        stats = SearchStats()
        problem.is_goal(root_of(problem), stats)
        problem.successors(root_of(problem), None, stats)
        assert stats.time_in_goal_tests > 0
        assert stats.time_in_successors > 0


class TestEstimates:
    def test_estimates_memoised_on_the_node(self):
        problem = make_problem()
        stats = SearchStats()
        root = problem.start(make_heuristic("h1", problem.target))
        first = problem.estimate(root, stats)
        assert problem.estimate(root, stats) == first == root.h
        assert stats.heuristic_cache_misses == 1
        assert stats.heuristic_cache_hits == 1
        assert stats.time_in_heuristic > 0

    def test_second_heuristic_raises(self):
        """A problem's nodes memoise one heuristic's estimates."""
        problem = make_problem()
        h1 = make_heuristic("h1", problem.target)
        assert problem.start(h1) is problem.start(h1)  # same one is fine
        with pytest.raises(SearchError):
            problem.start(make_heuristic("h0", problem.target))
        problem.clear_caches()  # drops every estimate: a new one may bind
        problem.start(make_heuristic("h0", problem.target))

    def test_estimate_needs_a_bound_heuristic(self):
        problem = make_problem()
        with pytest.raises(SearchError):
            problem.estimate(root_of(problem), SearchStats())


class TestInterning:
    def test_equal_states_share_one_object(self):
        problem = make_problem()
        data = {"R": [{"X": 1, "Y": 2}]}
        first = problem.node(Database.from_dict(data))
        again = problem.node(Database.from_dict(data))
        assert again is first

    def test_successor_children_are_interned(self):
        """Re-derived equal children come back as the *same node*."""
        problem = make_problem()
        root = root_of(problem)
        stats = SearchStats()
        first = problem.successors(root, None, stats)
        renames = [op for op, _ in first if isinstance(op, RenameAttribute)]
        # a different symmetry key forces a fresh computation of the same
        # children; interning must map them back to the first-run nodes
        second = problem.successors(root, renames[0], stats)
        by_op = {str(op): child for op, child in first}
        recomputed = [
            (op, child) for op, child in second if str(op) in by_op
        ]
        assert recomputed
        for op, child in recomputed:
            assert child is by_op[str(op)]

    @pytest.mark.parametrize("algorithm", ["ida", "rbfs"])
    def test_every_child_is_the_tables_node(self, algorithm):
        """After a finished search, each memoised child is the one node the
        table holds for its state, so the algorithms may track nodes by
        identity.  Fig. 1 B→A reaches many states from several parents."""
        target = flights_a()
        problem = MappingProblem(flights_b(), target)
        heuristic = make_heuristic("h1", target, algorithm=algorithm)
        ALGORITHMS[algorithm](problem, heuristic, SearchStats())
        nodes = problem._nodes
        children = [
            child
            for node in nodes.values()
            for entries in (node.entries or (), *(node.more or {}).values())
            for _op, child in entries
        ]
        assert len(children) > 2 * len(nodes)  # states met more than once
        for child in children:
            assert nodes[child.state] is child


class TestConfig:
    def test_cache_fields_default_on(self):
        """The memo tables are always on: no setting bounds or disables
        them.  Nor does any setting cap the depth or switch off an operator
        family: the config holds the budget, the two §2.3 pruning rules and
        the deadline."""
        fields = {field.name for field in dataclasses.fields(SearchConfig)}
        assert fields == {
            "max_states",
            "break_symmetry",
            "prune_targets",
            "deadline_seconds",
        }
