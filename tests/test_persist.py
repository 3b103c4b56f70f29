"""Tests for experiment persistence (repro.experiments.persist)."""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentPoint,
    ExperimentSeries,
    load_series,
    save_series,
    series_from_dict,
    series_to_dict,
)


def sample_series():
    return ExperimentSeries(
        "ida/h1",
        (
            ExperimentPoint(2, 3, "found", expression_size=2),
            ExperimentPoint(4, 5, "found", expression_size=4),
            ExperimentPoint(8, 200001, "budget_exceeded"),
        ),
    )


class TestDictRoundtrip:
    def test_roundtrip(self):
        series = sample_series()
        assert series_from_dict(series_to_dict(series)) == series

    def test_missing_expression_size_defaults(self):
        data = series_to_dict(sample_series())
        for point in data["points"]:
            point.pop("expression_size")
        restored = series_from_dict(data)
        assert all(p.expression_size == 0 for p in restored.points)

    def test_trace_path_roundtrip(self):
        series = ExperimentSeries(
            "ida/h0",
            (ExperimentPoint(2, 3, "found", trace_path="traces/run_x2.jsonl"),),
        )
        restored = series_from_dict(series_to_dict(series))
        assert restored.points[0].trace_path == "traces/run_x2.jsonl"
        assert restored == series

    def test_missing_trace_path_defaults(self):
        # archives written before the telemetry layer carry no trace_path
        data = series_to_dict(sample_series())
        for point in data["points"]:
            point.pop("trace_path")
        restored = series_from_dict(data)
        assert all(p.trace_path == "" for p in restored.points)


class TestFileRoundtrip:
    def test_save_and_load(self, tmp_path):
        path = tmp_path / "results" / "fig5.json"
        save_series(path, [sample_series()], metadata={"budget": 200000})
        loaded, metadata = load_series(path)
        assert loaded == [sample_series()]
        assert metadata == {"budget": 200000}

    def test_creates_parent_directories(self, tmp_path):
        path = save_series(tmp_path / "a" / "b" / "x.json", [sample_series()])
        assert path.exists()

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format_version": 99, "series": []}')
        with pytest.raises(ValueError):
            load_series(path)

    def test_deterministic_output(self, tmp_path):
        a = save_series(tmp_path / "a.json", [sample_series()])
        b = save_series(tmp_path / "b.json", [sample_series()])
        assert a.read_text() == b.read_text()

    def test_real_run_roundtrip(self, tmp_path):
        from repro.experiments import run_matching_series

        series = run_matching_series("rbfs", "h1", (2, 3))
        save_series(tmp_path / "run.json", [series])
        loaded, _ = load_series(tmp_path / "run.json")
        assert loaded[0] == series

    def test_loads_archives_with_eviction_counters(self, tmp_path):
        """Archives written while the node table could be bounded carried
        memo-eviction counters; they load, and those keys are ignored."""
        path = tmp_path / "bounded.json"
        path.write_text(
            """{
  "format_version": 1,
  "metadata": {"budget": 200000},
  "series": [
    {
      "label": "ida/h1",
      "points": [
        {
          "x": 2,
          "states": 3,
          "status": "found",
          "expression_size": 2,
          "cache_hits": 7,
          "cache_misses": 5,
          "cache_evictions": 4,
          "elapsed_seconds": 0.25,
          "trace_path": "",
          "successor_cache_evictions": 3,
          "goal_cache_evictions": 1
        }
      ]
    }
  ]
}
"""
        )
        loaded, metadata = load_series(path)
        assert metadata == {"budget": 200000}
        assert loaded == [
            ExperimentSeries(
                "ida/h1",
                (
                    ExperimentPoint(
                        2,
                        3,
                        "found",
                        expression_size=2,
                        cache_hits=7,
                        cache_misses=5,
                        elapsed_seconds=0.25,
                    ),
                ),
            )
        ]
        # and a re-save writes none of them
        resaved = save_series(tmp_path / "resaved.json", loaded).read_text()
        assert "evictions" not in resaved
