"""Unit tests for SearchConfig and SearchStats."""

from __future__ import annotations

import pytest

from repro.errors import SearchBudgetExceeded
from repro.search import OPERATOR_FAMILIES, SearchConfig, SearchStats


class TestSearchConfig:
    def test_defaults_enable_everything(self):
        config = SearchConfig()
        assert config.max_states == 1_000_000
        for family in OPERATOR_FAMILIES:
            assert config.allows(family)
        assert config.break_symmetry and config.prune_targets

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            SearchConfig(max_states=0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(enabled_operators=frozenset({"teleport"}))

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            SearchConfig(max_depth=-1)

    def test_without_operators(self):
        config = SearchConfig().without_operators("product", "demote")
        assert not config.allows("product")
        assert not config.allows("demote")
        assert config.allows("rename_att")

    def test_without_preserves_other_settings(self):
        base = SearchConfig(max_states=123, break_symmetry=False)
        derived = base.without_operators("merge")
        assert derived.max_states == 123
        assert derived.break_symmetry is False

    def test_frozen(self):
        with pytest.raises(AttributeError):
            SearchConfig().max_states = 5  # type: ignore[misc]


class TestSearchStats:
    def test_examine_counts(self):
        stats = SearchStats(budget=10)
        stats.examine(0)
        stats.examine(3)
        assert stats.states_examined == 2
        assert stats.max_depth == 3

    def test_budget_enforced(self):
        stats = SearchStats(budget=2)
        stats.examine()
        stats.examine()
        with pytest.raises(SearchBudgetExceeded) as err:
            stats.examine()
        assert err.value.budget == 2
        assert stats.states_examined == 3

    def test_generated_and_iterations(self):
        stats = SearchStats()
        stats.generated(5)
        stats.generated()
        stats.iteration()
        assert stats.states_generated == 6
        assert stats.iterations == 1

    def test_clock(self):
        stats = SearchStats()
        stats.stop_clock()
        assert stats.elapsed_seconds >= 0

    def test_as_dict(self):
        stats = SearchStats()
        stats.examine(1)
        data = stats.as_dict()
        assert data["states_examined"] == 1
        assert set(data) == {
            "states_examined",
            "states_generated",
            "iterations",
            "max_depth",
            "elapsed_seconds",
            "successor_cache_hits",
            "successor_cache_misses",
            "goal_cache_hits",
            "goal_cache_misses",
            "heuristic_cache_hits",
            "heuristic_cache_misses",
            "time_in_successors",
            "time_in_heuristic",
            "time_in_goal_tests",
        }

    def test_cache_aggregates(self):
        stats = SearchStats()
        stats.successor_cache_hits = 3
        stats.goal_cache_hits = 2
        stats.heuristic_cache_hits = 1
        stats.successor_cache_misses = 4
        assert stats.cache_hits == 6
        assert stats.cache_misses == 4
        assert stats.cache_hit_rate == 0.6

    def test_examined_trace_only_when_enabled(self):
        untraced = SearchStats()
        untraced.examine(0, "state")
        assert untraced.examined_states == []
        traced = SearchStats(trace=True)
        traced.examine(0, "s1")
        traced.examine(1, "s2")
        assert traced.examined_states == ["s1", "s2"]
