"""Perf-regression tracker: history appends, regression gate, exit codes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_TOOLS = Path(__file__).resolve().parent.parent / "tools" / "bench_history.py"


@pytest.fixture(scope="module")
def bench_history():
    spec = importlib.util.spec_from_file_location("bench_history_under_test", _TOOLS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write_warm_json(path: Path, warm_vs_cold: float) -> Path:
    payload = {
        "headline": {"warm_vs_cold": warm_vs_cold, "size": 6},
        "arms": {},
    }
    file = path / "BENCH_warm_start.json"
    file.write_text(json.dumps(payload))
    return file


def _write_scaling_json(path: Path, speedup: float) -> Path:
    payload = {"arms": {"workers_2": {"speedup": speedup, "workers": 2}}}
    file = path / "BENCH_parallel_scaling.json"
    file.write_text(json.dumps(payload))
    return file


class TestExtraction:
    def test_bench_name_strips_prefix(self, bench_history):
        assert bench_history.bench_name("BENCH_warm_start.json") == (
            "warm_start"
        )
        assert bench_history.bench_name("/a/b/BENCH_parallel_scaling.json") == (
            "parallel_scaling"
        )

    def test_extract_path_walks_and_rejects_non_numbers(self, bench_history):
        payload = {"a": {"b": 2.5, "flag": True, "name": "x"}}
        assert bench_history.extract_path(payload, "a.b") == 2.5
        assert bench_history.extract_path(payload, "a.missing") is None
        assert bench_history.extract_path(payload, "a.flag") is None
        assert bench_history.extract_path(payload, "a.name") is None

    def test_unknown_bench_raises_key_error(self, bench_history):
        with pytest.raises(KeyError, match="no tracked metrics"):
            bench_history.extract_metrics("mystery", {})


class TestRecordAndCheck:
    def test_record_then_check_passes(self, bench_history, tmp_path, capsys):
        warm = _write_warm_json(tmp_path, warm_vs_cold=5.5)
        scaling = _write_scaling_json(tmp_path, speedup=1.0)
        history = tmp_path / "history.jsonl"
        assert bench_history.main(
            ["record", str(warm), str(scaling), "--history", str(history)]
        ) == 0
        entries = [
            json.loads(line) for line in history.read_text().splitlines()
        ]
        assert [e["bench"] for e in entries] == [
            "warm_start", "parallel_scaling",
        ]
        assert entries[0]["metrics"]["headline.warm_vs_cold"] == 5.5
        assert entries[1]["metrics"]["arms.workers_2.speedup"] == 1.0
        assert bench_history.main(
            ["check", str(warm), str(scaling), "--history", str(history)]
        ) == 0
        assert "ok warm_start" in capsys.readouterr().out

    def test_check_with_no_history_passes_vacuously(
        self, bench_history, tmp_path
    ):
        warm = _write_warm_json(tmp_path, warm_vs_cold=5.5)
        history = tmp_path / "empty.jsonl"
        assert bench_history.main(
            ["check", str(warm), "--history", str(history)]
        ) == 0

    def test_injected_regression_exits_nonzero(
        self, bench_history, tmp_path, capsys
    ):
        warm = _write_warm_json(tmp_path, warm_vs_cold=5.5)
        history = tmp_path / "history.jsonl"
        bench_history.main(["record", str(warm), "--history", str(history)])
        slower = _write_warm_json(tmp_path, warm_vs_cold=3.0)
        assert bench_history.main(
            ["check", str(slower), "--history", str(history)]
        ) == 1
        err = capsys.readouterr().err
        assert "REGRESSION" in err
        assert "headline.warm_vs_cold" in err

    def test_threshold_tolerates_small_dips(self, bench_history, tmp_path):
        warm = _write_warm_json(tmp_path, warm_vs_cold=5.0)
        history = tmp_path / "history.jsonl"
        bench_history.main(["record", str(warm), "--history", str(history)])
        dip = _write_warm_json(tmp_path, warm_vs_cold=4.5)
        assert bench_history.main(
            ["check", str(dip), "--history", str(history)]
        ) == 0
        cliff = _write_warm_json(tmp_path, warm_vs_cold=4.5)
        assert bench_history.main(
            ["check", str(cliff), "--history", str(history),
             "--threshold", "0.01"]
        ) == 1

    def test_missing_file_exits_two(self, bench_history, tmp_path, capsys):
        assert bench_history.main(
            ["check", str(tmp_path / "BENCH_warm_start.json"),
             "--history", str(tmp_path / "h.jsonl")]
        ) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_unknown_bench_exits_two(self, bench_history, tmp_path, capsys):
        rogue = tmp_path / "BENCH_mystery.json"
        rogue.write_text("{}")
        assert bench_history.main(
            ["record", str(rogue), "--history", str(tmp_path / "h.jsonl")]
        ) == 2
        assert "no tracked metrics" in capsys.readouterr().err

    def test_corrupt_history_exits_two(self, bench_history, tmp_path, capsys):
        warm = _write_warm_json(tmp_path, warm_vs_cold=5.5)
        history = tmp_path / "history.jsonl"
        history.write_text("{broken\n")
        assert bench_history.main(
            ["check", str(warm), "--history", str(history)]
        ) == 2
        assert "bad history line" in capsys.readouterr().err


def test_write_bench_json_env_hook_appends(tmp_path, monkeypatch):
    """REPRO_BENCH_HISTORY makes every bench publish into the history."""
    import sys

    benchmarks = Path(__file__).resolve().parent.parent / "benchmarks"
    monkeypatch.syspath_prepend(str(benchmarks))
    sys.modules.pop("_bench_utils", None)
    from _bench_utils import write_bench_json

    history = tmp_path / "auto.jsonl"
    monkeypatch.setenv("REPRO_BENCH_HISTORY", str(history))
    payload = {"headline": {"warm_vs_cold": 5.0}}
    write_bench_json(tmp_path / "BENCH_warm_start.json", payload)
    entry = json.loads(history.read_text().splitlines()[0])
    assert entry["bench"] == "warm_start"
    assert entry["metrics"] == {"headline.warm_vs_cold": 5.0}
    # untracked payloads write their JSON but skip the history
    write_bench_json(tmp_path / "BENCH_mystery.json", {"x": 1})
    assert len(history.read_text().splitlines()) == 1
