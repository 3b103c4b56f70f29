"""Tests for the parallel execution layer (repro.parallel).

The layer's contract is *equivalence*: a parallel sweep must persist
bit-identical ExperimentPoints to a serial sweep (modulo wall-clock and the
per-worker trace-path marker).
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.experiments.runner import (
    run_bamm_domain,
    run_matching_series,
    run_semantic_series,
)
from repro.obs import (
    discover_trace_files,
    load_trace,
    merge_traces,
    merged_counters,
    replay_counters,
)
from repro.parallel import (
    normalize_point,
    normalize_series,
    run_experiment_points,
)
from repro.parallel import fanout as fanout_module
from repro.parallel.pool import (
    cpu_count,
    default_workers,
    resolve_start_method,
    strided_chunks,
    worker_trace_path,
)
from repro.parallel.providers import (
    has_provider,
    provider_names,
    register_provider,
    resolve_registry,
)
from repro.relational import Database, Relation
from repro.search.problem import MappingProblem
from repro.semantics import FunctionRegistry
from repro.workloads.bamm import bamm_corpus
from repro.workloads.semantic_domains import inventory_domain
from repro.workloads.synthetic import matching_pair


class TestPoolHelpers:
    def test_strided_chunks_round_robin(self):
        assert strided_chunks([1, 2, 3, 4, 5], 2) == [[1, 3, 5], [2, 4]]

    def test_strided_chunks_drops_empty(self):
        assert strided_chunks([1], 4) == [[1]]

    def test_worker_trace_path_marker(self):
        assert worker_trace_path("out/run_x3.jsonl", 1) == "out/run_x3.w1.jsonl"

    def test_worker_trace_path_empty_passthrough(self):
        assert worker_trace_path("", 0) == ""

    def test_resolve_start_method_rejects_unknown(self):
        with pytest.raises(ValueError):
            resolve_start_method("threads")

    def test_cpu_count_and_default_workers_positive(self):
        assert cpu_count() >= 1
        assert 1 <= default_workers() <= cpu_count()


class TestPickleSafety:
    def test_relation_round_trip_drops_views(self):
        rel = Relation.from_dicts("R", [{"A": 1, "B": "x"}])
        rel.value_set()  # warm a memoised view
        clone = pickle.loads(pickle.dumps(rel))
        assert clone == rel
        assert clone._views == {}
        assert clone.value_set() == rel.value_set()

    def test_database_round_trip_drops_views(self):
        db = Database.from_dict({"R": [{"A": 1}], "S": [{"B": 2}]})
        db.value_text_ids()  # warm a memoised view
        clone = pickle.loads(pickle.dumps(db))
        assert clone == db
        assert clone._views == {}
        assert hash(clone) == hash(db)

    def test_mapping_problem_getstate_drops_memo_tables(self):
        pair = matching_pair(2)
        problem = MappingProblem(
            pair.source, pair.target, registry=FunctionRegistry()
        )
        # warm the memo tables, then check they do not cross the pickle line
        start = problem.initial_state()
        problem.successors(start)
        problem.is_goal(start)
        clone = pickle.loads(pickle.dumps(problem))
        assert clone._successor_cache == {}
        assert clone._goal_cache == {}
        assert clone._interned == {}
        assert clone.source == problem.source
        assert clone.target == problem.target


class TestFanoutEquivalence:
    def test_matching_two_workers_bit_identical(self, tmp_path):
        serial = run_matching_series(
            "ida",
            "h1",
            [1, 2, 3, 4],
            budget=20_000,
            trace_dir=tmp_path / "serial",
        )
        parallel = run_matching_series(
            "ida",
            "h1",
            [1, 2, 3, 4],
            budget=20_000,
            trace_dir=tmp_path / "parallel",
            workers=2,
        )
        assert normalize_series(parallel) == normalize_series(serial)
        # the worker traces' summed replay_counters equal the serial ones
        totals = {
            arm: merged_counters(merge_traces(discover_trace_files(tmp_path / arm)))
            for arm in ("serial", "parallel")
        }
        assert totals["parallel"] == totals["serial"]
        assert totals["serial"]["states_examined"] > 0

    def test_matching_one_worker_bit_identical(self):
        serial = run_matching_series("greedy", "h1", [2, 3], budget=20_000)
        parallel = run_matching_series(
            "greedy", "h1", [2, 3], budget=20_000, workers=1
        )
        assert normalize_series(parallel) == normalize_series(serial)

    def test_stop_after_cutoff_truncates_like_serial(self):
        # a tiny budget forces a cutoff mid-grid
        serial = run_matching_series("ida", "h0", [1, 2, 3, 4, 5], budget=10)
        parallel = run_matching_series(
            "ida", "h0", [1, 2, 3, 4, 5], budget=10, workers=2
        )
        assert len(serial.points) < 5  # the cutoff actually triggered
        assert normalize_series(parallel) == normalize_series(serial)

    def test_bamm_two_workers_bit_identical(self):
        domain = bamm_corpus(2006)["Books"]
        serial = run_bamm_domain("greedy", "h1", domain, budget=5_000, limit=4)
        parallel = run_bamm_domain(
            "greedy", "h1", domain, budget=5_000, limit=4, workers=2
        )
        assert normalize_series(parallel) == normalize_series(serial)

    def test_semantic_two_workers_bit_identical(self):
        domain = inventory_domain()
        serial = run_semantic_series(
            "ida", "h1", domain, counts=[1, 2, 3], budget=20_000
        )
        parallel = run_semantic_series(
            "ida", "h1", domain, counts=[1, 2, 3], budget=20_000, workers=2
        )
        assert normalize_series(parallel) == normalize_series(serial)

    def test_worker_traces_round_trip(self, tmp_path):
        series = run_matching_series(
            "ida", "h1", [1, 2, 3], budget=20_000, trace_dir=tmp_path, workers=2
        )
        suffixes = {p.trace_path.rsplit(".w", 1)[1] for p in series.points}
        assert suffixes <= {"0.jsonl", "1.jsonl"}
        assert len(suffixes) == 2  # both workers actually wrote traces
        for point in series.points:
            events = load_trace(point.trace_path)
            counters = replay_counters(events)
            assert counters["states_examined"] == point.states

    def test_degrades_to_serial_when_pool_unavailable(self, monkeypatch):
        monkeypatch.setattr(
            fanout_module, "try_executor", lambda *a, **k: None
        )
        serial = run_matching_series("ida", "h1", [1, 2], budget=20_000)
        degraded = run_matching_series(
            "ida", "h1", [1, 2], budget=20_000, workers=2
        )
        assert normalize_series(degraded) == normalize_series(serial)

    def test_empty_specs(self):
        assert run_experiment_points([], workers=2) == []

    @pytest.mark.parametrize("workers", [0, 2])
    def test_semantic_domain_without_provider_fails_fast(
        self, workers, monkeypatch
    ):
        domain = replace(inventory_domain(), name="Unregistered")

        def no_search(*_args, **_kwargs):
            raise AssertionError("searched a domain with no provider")

        monkeypatch.setattr(fanout_module, "discover_mapping", no_search)
        with pytest.raises(KeyError, match="register_provider"):
            run_semantic_series(
                "ida", "h1", domain, counts=[1, 2], workers=workers
            )

    def test_normalize_point_zeros_volatile_fields_only(self):
        series = run_matching_series("ida", "h1", [2], budget=20_000)
        point = series.points[0]
        normal = normalize_point(point)
        assert normal.elapsed_seconds == 0.0
        assert normal.trace_path == ""
        assert (normal.x, normal.states, normal.status) == (
            point.x,
            point.states,
            point.status,
        )


class TestProviders:
    def test_builtin_and_semantic_domains_registered(self):
        assert has_provider("builtin")
        assert has_provider("Inventory")
        assert has_provider("RealEstateII")

    def test_resolve_unknown_raises_with_known_names(self):
        with pytest.raises(KeyError, match="builtin"):
            resolve_registry("nope")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_provider("builtin", FunctionRegistry)

    def test_register_replace(self):
        name = "test-provider-tmp"
        register_provider(name, FunctionRegistry)
        try:
            register_provider(name, FunctionRegistry, replace=True)
            assert name in provider_names()
        finally:
            from repro.parallel import providers

            providers._PROVIDERS.pop(name, None)


class TestCli:
    def test_experiments_command_parallel(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "series.json"
        code = main(
            [
                "experiments",
                "--sizes",
                "1",
                "2",
                "--algorithm",
                "ida",
                "--workers",
                "2",
                "--budget",
                "20000",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        captured = capsys.readouterr().out
        assert "ida/h1" in captured

    def test_discover_requires_some_workload(self, capsys):
        from repro.cli import main

        assert main(["discover", "--synthetic", "0"]) == 2
        assert main(["discover"]) == 2

    def test_info_reports_parallel_capabilities(self, capsys):
        from repro.cli import main

        assert main(["info"]) == 0
        captured = capsys.readouterr().out
        assert "parallel:" in captured
        assert "cpu" in captured
        assert "start methods" in captured
