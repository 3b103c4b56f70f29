"""Tests for the experiment runner (repro.experiments.runner)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentPoint,
    ExperimentSeries,
    average_states,
    run_bamm_domain,
    run_matching_series,
    run_semantic_series,
)
from repro.workloads import bamm_domain, inventory_domain


class TestMatchingSeries:
    def test_h1_linear_shape(self):
        series = run_matching_series("ida", "h1", sizes=(2, 4, 8))
        assert [p.x for p in series.points] == [2, 4, 8]
        # IDA with h1 examines n+1 states on the canonical path
        assert series.states() == [3, 5, 9]
        assert all(p.found for p in series.points)

    def test_h0_exponential_shape(self):
        series = run_matching_series("ida", "h0", sizes=(2, 3, 4), budget=50_000)
        states = series.states()
        assert states[1] > 2 * states[0]
        assert states[2] > 2 * states[1]

    def test_cutoff_stops_series(self):
        series = run_matching_series(
            "ida", "h0", sizes=(2, 8, 16), budget=500
        )
        assert series.points[-1].status == "budget_exceeded"
        assert len(series.points) == 2  # 16 never attempted

    def test_cutoff_continue_mode(self):
        series = run_matching_series(
            "ida", "h0", sizes=(8, 9), budget=100, stop_after_cutoff=False
        )
        assert len(series.points) == 2

    def test_label(self):
        series = run_matching_series("rbfs", "cosine", sizes=(2,))
        assert series.label == "rbfs/cosine"


class TestBammSeries:
    def test_limit(self):
        domain = bamm_domain("Books")
        series = run_bamm_domain("rbfs", "h1", domain, limit=5)
        assert len(series.points) == 5

    def test_all_found_with_h1(self):
        domain = bamm_domain("Movies")
        series = run_bamm_domain("rbfs", "h1", domain, limit=8, budget=50_000)
        assert all(p.found for p in series.points)

    def test_average(self):
        series = ExperimentSeries(
            "x",
            (
                ExperimentPoint(1, 10, "found"),
                ExperimentPoint(2, 30, "found"),
            ),
        )
        assert average_states(series) == 20

    def test_average_empty(self):
        assert average_states(ExperimentSeries("x", ())) == 0.0


class TestTelemetryHooks:
    def test_trace_dir_persists_one_trace_per_point(self, tmp_path):
        from repro.obs import load_trace, replay_counters

        series = run_matching_series(
            "ida", "h1", sizes=(2, 3), trace_dir=tmp_path / "traces"
        )
        for point in series.points:
            assert point.trace_path
            events = load_trace(point.trace_path)  # schema-validates
            assert replay_counters(events)["states_examined"] == point.states

    def test_trace_filenames_are_filesystem_safe(self, tmp_path):
        series = run_matching_series(
            "ida", "h1", sizes=(2,), trace_dir=tmp_path
        )
        name = series.points[0].trace_path
        assert "/" not in name.rsplit("/", 1)[-1]
        assert name.endswith("_x2.jsonl")

    def test_without_trace_dir_no_paths(self):
        series = run_matching_series("ida", "h1", sizes=(2,))
        assert all(p.trace_path == "" for p in series.points)


class TestSemanticSeries:
    def test_h1_series(self):
        series = run_semantic_series(
            "rbfs", "h1", inventory_domain(), counts=(1, 2, 3)
        )
        assert [p.x for p in series.points] == [1, 2, 3]
        assert all(p.found for p in series.points)
        # one lambda per declared function plus the goal state
        assert series.states() == [2, 3, 4]

    def test_counts_clamped_to_domain(self):
        series = run_semantic_series(
            "rbfs", "h1", inventory_domain(), counts=(9, 10, 11)
        )
        assert [p.x for p in series.points] == [9, 10]

    def test_expression_size_recorded(self):
        series = run_semantic_series(
            "rbfs", "h1", inventory_domain(), counts=(3,)
        )
        assert series.points[0].expression_size == 3
