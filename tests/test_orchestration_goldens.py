"""Orchestration goldens: what sweeps and traced discoveries return.

``tests/goldens/search.json`` pins single discoveries.  This module pins
the layer above them, compared with ``tests/goldens/orchestration.json``:

* the normalized :class:`~repro.experiments.runner.ExperimentSeries` of one
  sweep per ``run_*`` function (x, states, status, expression size and
  cache counters; wall-clock and trace paths zeroed), including a matching
  sweep whose budget cuts it off before its last size;
* the shape of four traced discoveries (cold, store miss, store served and
  budget cut): the event sequence, span names and each event's key set.

The file is rewritten only by running this module with
``--update-goldens``::

    PYTHONPATH=src python -m pytest tests/test_orchestration_goldens.py --update-goldens
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import SearchConfig, discover_mapping
from repro.experiments.runner import (
    run_bamm_domain,
    run_matching_series,
    run_semantic_series,
)
from repro.obs import memory_tracer
from repro.parallel import normalize_series
from repro.workloads import bamm_domain, inventory_domain, matching_pair

GOLDENS = Path(__file__).parent / "goldens" / "orchestration.json"

#: a grid whose budget cuts it at n=5, so n=6 must never be searched
CUTOFF_SIZES = (1, 2, 3, 4, 5, 6)
CUTOFF_BUDGET = 2_000


def _matching_sweep(workers: int, trace_dir=None):
    return run_matching_series(
        "ida",
        "h0",
        CUTOFF_SIZES,
        budget=CUTOFF_BUDGET,
        trace_dir=trace_dir,
        workers=workers,
    )


def _bamm_sweep(workers: int):
    return run_bamm_domain(
        "rbfs",
        "euclid_norm",
        bamm_domain("Books"),
        budget=5_000,
        limit=4,
        workers=workers,
    )


def _semantic_sweep(workers: int):
    return run_semantic_series(
        "ida", "h1", inventory_domain(), counts=[1, 2, 3], budget=20_000,
        workers=workers,
    )


SWEEPS = {
    "sweep/matching/ida/h0/n=1-6/budget=2000": _matching_sweep,
    "sweep/bamm/Books/rbfs/euclid_norm/limit=4": _bamm_sweep,
    "sweep/semantic/Inventory/ida/h1/counts=1-3": _semantic_sweep,
}


def _series_record(series) -> dict:
    # through JSON, so tuples compare equal to the file's lists
    return json.loads(json.dumps(asdict(normalize_series(series))))


def _trace_shape(run) -> list:
    """Event name, span name and key set of every record *run* emits."""
    tracer, sink = memory_tracer()
    run(tracer)
    shape = []
    for event in sink.events:
        keys = sorted(k for k in event if k != "event")
        span = event.get("name") if event["event"].startswith("span_") else None
        shape.append([event["event"], span, keys])
    return shape


def _traced_pair2(tracer, **kwargs):
    pair = matching_pair(2)
    return discover_mapping(
        pair.source, pair.target, algorithm="ida", heuristic="h1",
        tracer=tracer, **kwargs
    )


def _trace_cold(_tmp: Path) -> list:
    return _trace_shape(_traced_pair2)


def _trace_store_miss(tmp: Path) -> list:
    store = tmp / "store"
    return _trace_shape(lambda tracer: _traced_pair2(tracer, store=store))


def _trace_store_served(tmp: Path) -> list:
    store = tmp / "store"
    _traced_pair2(None, store=store)
    return _trace_shape(lambda tracer: _traced_pair2(tracer, store=store))


def _trace_budget_cut(_tmp: Path) -> list:
    pair = matching_pair(3)
    return _trace_shape(
        lambda tracer: discover_mapping(
            pair.source, pair.target, algorithm="ida", heuristic="h0",
            config=SearchConfig(max_states=10), tracer=tracer,
        )
    )


RUNS = {
    "trace/cold/n=2/ida/h1": _trace_cold,
    "trace/store_miss/n=2/ida/h1": _trace_store_miss,
    "trace/store_served/n=2/ida/h1": _trace_store_served,
    "trace/budget_cut/n=3/ida/h0/budget=10": _trace_budget_cut,
}

CASES = (*SWEEPS, *RUNS)


def _render(goldens: dict) -> str:
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def goldens(request):
    """The recorded goldens; with ``--update-goldens``, a dict to fill."""
    update = request.config.getoption("update_goldens")
    recorded = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    if not update:
        yield recorded
        return
    fresh: dict = {}
    yield fresh
    merged = {
        case_id: fresh.get(case_id, recorded.get(case_id))
        for case_id in CASES
        if case_id in fresh or case_id in recorded
    }
    GOLDENS.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS.write_text(_render(merged))


def _check(case_id: str, observed, goldens: dict, request) -> None:
    if request.config.getoption("update_goldens"):
        goldens[case_id] = observed
        return
    assert case_id in goldens, (
        f"no golden for {case_id!r}; record it with --update-goldens"
    )
    assert observed == goldens[case_id]


@pytest.mark.parametrize("case_id", list(SWEEPS))
def test_serial_sweep_golden(case_id, goldens, request):
    _check(case_id, _series_record(SWEEPS[case_id](0)), goldens, request)


@pytest.mark.parametrize("case_id", list(SWEEPS))
def test_pooled_sweep_matches_serial_golden(case_id, goldens, request):
    if request.config.getoption("update_goldens"):
        pytest.skip("goldens are recorded from serial sweeps")
    assert _series_record(SWEEPS[case_id](2)) == goldens[case_id]


@pytest.mark.parametrize("case_id", list(RUNS))
def test_run_golden(case_id, goldens, request, tmp_path):
    _check(case_id, RUNS[case_id](tmp_path), goldens, request)


def test_goldens_cover_exactly_the_cases(goldens, request):
    if request.config.getoption("update_goldens"):
        pytest.skip("goldens are being rewritten")
    assert set(goldens) == set(CASES)


def test_goldens_file_is_canonical(goldens, request):
    if request.config.getoption("update_goldens"):
        pytest.skip("goldens are being rewritten")
    assert GOLDENS.read_text() == _render(goldens)


def test_serial_cutoff_sweep_stops_at_first_cutoff(tmp_path):
    """Only the points' searches left traces: no size past the cut ran.

    A sweep that measured the whole grid and truncated afterwards would
    persist the same points but leave the cut-off size's trace too.
    """
    series = _matching_sweep(0, trace_dir=tmp_path)
    assert [p.x for p in series.points] == [1, 2, 3, 4, 5]
    assert series.points[-1].status == "budget_exceeded"
    assert sorted(tmp_path.iterdir()) == sorted(
        Path(p.trace_path) for p in series.points
    )
    assert not list(tmp_path.glob("*_x6.jsonl"))
