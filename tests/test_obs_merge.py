"""Cross-process trace aggregation: merge, causal order, counter equality."""

from __future__ import annotations

import json

import pytest

from repro.errors import TraceFormatError
from repro.obs import (
    load_trace,
    merge_report,
    merge_traces,
    merged_counters,
    validate_events,
    write_merged,
)
from repro.obs.merge import discover_trace_files, load_trace_lenient
from repro.experiments.runner import run_matching_series

SIZES = (3, 4, 5)
BUDGET = 50_000


@pytest.fixture(scope="module")
def sweep_traces(tmp_path_factory):
    """Trace files from the same sweep run serially and with workers=2."""
    serial_dir = tmp_path_factory.mktemp("serial")
    worker_dir = tmp_path_factory.mktemp("workers")
    run_matching_series(
        "ida", "h1", SIZES, budget=BUDGET, trace_dir=serial_dir, workers=0
    )
    run_matching_series(
        "ida", "h1", SIZES, budget=BUDGET, trace_dir=worker_dir, workers=2
    )
    serial = sorted(serial_dir.glob("*.jsonl"))
    workers = sorted(worker_dir.glob("*.jsonl"))
    assert len(serial) == len(SIZES)
    assert len(workers) == len(SIZES)
    # the fan-out spliced worker markers into every trace name
    assert all(".w" in path.name for path in workers)
    return serial, workers


class TestMergeTimeline:
    def test_merged_timeline_is_causally_ordered(self, sweep_traces):
        _, workers = sweep_traces
        merged = merge_traces(workers)
        times = [event["t"] for event in merged.events]
        assert times == sorted(times)
        assert [event["seq"] for event in merged.events] == list(
            range(1, len(merged.events) + 1)
        )
        validate_events(merged.events)

    def test_every_event_attributes_its_source(self, sweep_traces):
        _, workers = sweep_traces
        merged = merge_traces(workers)
        labels = {event["src"] for event in merged.events}
        assert labels == {path.stem for path in workers}
        # each source contributes its full event stream
        assert len(merged.events) == sum(
            len(source.events) for source in merged.sources
        )

    def test_workers_merge_counters_equal_serial(self, sweep_traces):
        serial, workers = sweep_traces
        serial_counters = merged_counters(merge_traces(serial))
        worker_counters = merged_counters(merge_traces(workers))
        assert worker_counters == serial_counters
        assert worker_counters["states_examined"] > 0

    def test_merged_trace_round_trips_through_load_trace(
        self, sweep_traces, tmp_path
    ):
        _, workers = sweep_traces
        merged = merge_traces(workers)
        out = tmp_path / "merged.jsonl"
        write_merged(merged, out)
        reloaded = load_trace(out)
        assert len(reloaded) == len(merged.events)
        header = json.loads(out.read_text().splitlines()[0])
        assert sorted(header["merged_from"]) == sorted(
            path.stem for path in workers
        )

    def test_merge_report_names_sources_and_totals(self, sweep_traces):
        _, workers = sweep_traces
        report = merge_report(merge_traces(workers))
        for path in workers:
            assert path.stem in report
        assert "merged counters" in report
        assert "states_examined" in report


class TestLenientLoading:
    def test_torn_final_line_is_tolerated(self, sweep_traces):
        serial, _ = sweep_traces
        text = serial[0].read_text()
        torn = serial[0].parent / "torn.jsonl"
        torn.write_text(text + '{"event": "expand", "seq"')
        source = load_trace_lenient(torn)
        assert source.torn
        assert merge_traces([torn]).torn_sources == ["torn"]
        torn.unlink()

    def test_mid_file_corruption_still_raises(self, tmp_path, sweep_traces):
        serial, _ = sweep_traces
        lines = serial[0].read_text().splitlines()
        lines[1] = "not json"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError, match="not valid JSON"):
            load_trace_lenient(bad)

    def test_header_only_and_foreign_files_raise(self, tmp_path):
        missing_header = tmp_path / "foreign.jsonl"
        missing_header.write_text('{"event": "expand", "seq": 1, "t": 0.0}\n')
        with pytest.raises(TraceFormatError, match="trace_header"):
            load_trace_lenient(missing_header)
        stale = tmp_path / "stale.jsonl"
        stale.write_text(
            '{"event": "trace_header", "seq": 0, "t": 0.0, '
            '"schema_version": 999}\n'
        )
        with pytest.raises(TraceFormatError, match="schema version"):
            load_trace_lenient(stale)

    def test_merge_requires_at_least_one_source(self):
        with pytest.raises(TraceFormatError, match="no trace files"):
            merge_traces([])


def test_discover_trace_files_expands_directories(tmp_path, sweep_traces):
    serial, _ = sweep_traces
    assert discover_trace_files(serial[0]) == [serial[0]]
    found = discover_trace_files(serial[0].parent)
    assert serial[0] in found
    assert found == sorted(found)
