"""Unit tests for the MappingProblem transposition table and state interning."""

from __future__ import annotations

import dataclasses

import pytest

from repro.fira import RenameAttribute
from repro.relational import Database
from repro.search import MappingProblem, SearchConfig, SearchStats
from repro.workloads import matching_pair


def make_problem(**config_kwargs) -> MappingProblem:
    pair = matching_pair(2)
    return MappingProblem(
        pair.source, pair.target, config=SearchConfig(**config_kwargs)
    )


class TestSuccessorCache:
    def test_second_call_is_a_hit(self):
        problem = make_problem()
        stats = SearchStats()
        state = problem.initial_state()
        first = problem.successors(state, None, stats)
        second = problem.successors(state, None, stats)
        assert stats.successor_cache_misses == 1
        assert stats.successor_cache_hits == 1
        assert first == second
        assert first is not second  # callers get their own list

    def test_generated_counts_match_on_hits(self):
        """states_generated counts successors *delivered*, hit or miss."""
        problem = make_problem()
        stats = SearchStats()
        state = problem.initial_state()
        out = problem.successors(state, None, stats)
        problem.successors(state, None, stats)
        assert stats.states_generated == 2 * len(out)

    def test_symmetry_key_canonicalises_last_op(self):
        """Operators sharing the symmetry-relevant parts share one entry."""
        problem = make_problem()
        stats = SearchStats()
        state = problem.initial_state()
        ops = [op for op, _ in problem.successors(state, None, stats)]
        renames = [op for op in ops if isinstance(op, RenameAttribute)]
        assert renames, "matching workload must propose attribute renames"
        base = renames[0]
        twin = dataclasses.replace(base, new=base.new + "_other")
        k_base = problem._symmetry_key(base)
        assert k_base == ("rename_att", base.relation, base.old)
        assert problem._symmetry_key(twin) == k_base
        # same key => the second query under the twin operator is a hit
        problem.successors(state, base, stats)
        hits_before = stats.successor_cache_hits
        problem.successors(state, twin, stats)
        assert stats.successor_cache_hits == hits_before + 1

    def test_no_symmetry_breaking_collapses_keys(self):
        problem = make_problem(break_symmetry=False)
        state = problem.initial_state()
        ops = [op for op, _ in problem.successors(state, None)]
        renames = [op for op in ops if isinstance(op, RenameAttribute)]
        assert problem._symmetry_key(renames[0]) is None
        assert problem._symmetry_key(None) is None

    def test_capacity_bound_evicts_lru(self):
        problem = make_problem(cache_capacity=1)
        stats = SearchStats()
        state = problem.initial_state()
        succ = problem.successors(state, None, stats)
        child = succ[0][1]
        problem.successors(child, succ[0][0], stats)  # evicts the root entry
        assert stats.successor_cache_evictions == 1
        problem.successors(state, None, stats)  # recomputed, not a hit
        assert stats.successor_cache_hits == 0
        assert stats.successor_cache_misses == 3
        assert len(problem._successor_cache) <= 1

    def test_clear_caches(self):
        problem = make_problem()
        state = problem.initial_state()
        problem.successors(state, None)
        problem.is_goal(state)
        assert problem._successor_cache and problem._goal_cache
        problem.clear_caches()
        assert not problem._successor_cache
        assert not problem._goal_cache
        assert not problem._interned


class TestGoalCache:
    def test_false_verdicts_are_cached_hits(self):
        problem = make_problem()
        stats = SearchStats()
        state = problem.initial_state()
        assert problem.is_goal(state, stats) is False
        assert problem.is_goal(state, stats) is False
        assert stats.goal_cache_misses == 1
        assert stats.goal_cache_hits == 1

    def test_true_verdicts_are_cached_hits(self):
        problem = make_problem()
        stats = SearchStats()
        assert problem.is_goal(problem.target, stats) is True
        assert problem.is_goal(problem.target, stats) is True
        assert stats.goal_cache_misses == 1
        assert stats.goal_cache_hits == 1

    def test_timing_recorded(self):
        problem = make_problem()
        stats = SearchStats()
        problem.is_goal(problem.initial_state(), stats)
        problem.successors(problem.initial_state(), None, stats)
        assert stats.time_in_goal_tests > 0
        assert stats.time_in_successors > 0


class TestInterning:
    def test_equal_states_share_one_object(self):
        problem = make_problem()
        data = {"R": [{"X": 1, "Y": 2}]}
        first = problem._intern(Database.from_dict(data))
        again = problem._intern(Database.from_dict(data))
        assert again is first

    def test_successor_children_are_interned(self):
        """Re-derived equal children come back as the *same object*."""
        problem = make_problem()
        state = problem.initial_state()
        first = problem.successors(state, None)
        renames = [op for op, _ in first if isinstance(op, RenameAttribute)]
        # a different symmetry key forces a fresh computation of the same
        # children; interning must map them back to the first-run objects
        second = problem.successors(state, renames[0])
        by_op = {str(op): child for op, child in first}
        recomputed = [
            (op, child) for op, child in second if str(op) in by_op
        ]
        assert recomputed
        for op, child in recomputed:
            assert child is by_op[str(op)]

    def test_intern_respects_capacity(self):
        problem = make_problem(cache_capacity=1)
        a = problem._intern(Database.from_dict({"R": [{"X": 1}]}))
        problem._intern(Database.from_dict({"S": [{"Y": 2}]}))
        fresh_a = Database.from_dict({"R": [{"X": 1}]})
        assert problem._intern(fresh_a) is fresh_a  # a was evicted
        assert len(problem._interned) <= 1
        assert a == fresh_a


class TestConfig:
    def test_cache_fields_default_on(self):
        config = SearchConfig()
        assert config.cache_capacity is None  # unbounded tables

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(cache_capacity=0)
        assert SearchConfig(cache_capacity=1).cache_capacity == 1
