"""Chaos suite: deadlines, cancellation, and fault-injected degradation.

Every test here either (a) cuts a real search with a wall-clock deadline
or a :class:`CancelToken` and checks the partial result is usable, or
(b) injects a deterministic fault (``repro.resilience.faults``) into a
parallel/tracing path and checks the run degrades — parallel → serial,
traced → untraced — with bit-identical
deterministic payloads and ``resilience.*`` counters recording what
happened.  No test leaves child processes behind.
"""

from __future__ import annotations

import gc
import json
import multiprocessing as mp
import os
import threading
import time

import pytest

from repro import (
    CancelToken,
    SearchConfig,
    SearchCancelled,
    SearchDeadlineExceeded,
    discover_mapping,
)
from repro.errors import TraceWriteError
from repro.experiments.persist import series_from_dict, series_to_dict
from repro.experiments.runner import run_matching_series
from repro.obs import JsonlSink, MemorySink, Tracer
from repro.obs.sinks import SITE_SINK_WRITE
from repro.parallel import strided_chunks
from repro.parallel.fanout import (
    SITE_FANOUT_POOL,
    SITE_FANOUT_WORKER,
    normalize_series,
)
from repro.resilience import (
    CRASH_EXIT_CODE,
    FAULTS_ENV,
    FaultSpec,
    InjectedIOError,
    absorb_resilience,
    activate,
    backoff_delay,
    deactivate,
    enter_worker,
    fault_plan,
    in_worker,
    inject,
    reset_resilience,
    resilience_counters,
    resilience_delta,
    resilience_events,
    resilience_warning,
    retry_call,
)
from repro.search import LIMIT_CHECK_EVERY, STATUS_DEADLINE_EXCEEDED
from repro.search.stats import SearchStats
from repro.workloads.synthetic import matching_pair

# The cooperative check runs every LIMIT_CHECK_EVERY examinations, so the
# overshoot has an *absolute* floor (one check gap) on top of the relative
# 1.25x contract; the deadline must be long enough that a slow gap on a
# loaded single-CPU box stays inside the ratio.
DEADLINE = 0.5
DEADLINE_SLACK = 1.25  # accepted overshoot ratio (docs/robustness.md)


@pytest.fixture(autouse=True)
def _clean_slate():
    """Every test starts with no fault plan and zeroed resilience counters."""
    deactivate()
    reset_resilience()
    yield
    deactivate()
    reset_resilience()


def _no_leaked_children():
    """True when no live child processes remain (after a short settle)."""
    for _ in range(50):
        if not mp.active_children():
            return True
        time.sleep(0.02)
    return not mp.active_children()


# ---------------------------------------------------------------------------
# Wall-clock deadlines
# ---------------------------------------------------------------------------


# beam finishes matching_pair(7) in well under DEADLINE, so it races a
# larger instance that runs for seconds when unbounded.
DEADLINE_CASES = [
    ("ida", 7),
    ("rbfs", 7),
    ("astar", 7),
    ("beam", 24),
]


@pytest.mark.parametrize("algorithm,size", DEADLINE_CASES)
def test_deadline_cuts_every_algorithm(algorithm, size):
    pair = matching_pair(size)
    config = SearchConfig(max_states=10_000_000, deadline_seconds=DEADLINE)
    start = time.perf_counter()
    result = discover_mapping(
        pair.source,
        pair.target,
        algorithm=algorithm,
        heuristic="h0",
        config=config,
        simplify=False,
    )
    elapsed = time.perf_counter() - start
    assert result.status == STATUS_DEADLINE_EXCEEDED
    assert result.deadline_exceeded
    assert result.expression is None
    assert elapsed <= DEADLINE * DEADLINE_SLACK
    # the partial run still reports usable statistics
    assert result.stats.states_examined > 0
    assert result.frontier_depth >= 1
    payload = result.stats.as_dict()
    assert payload["deadline_seconds"] == DEADLINE
    assert payload["states_examined"] == result.stats.states_examined


def test_deadline_unset_by_default():
    pair = matching_pair(3)
    result = discover_mapping(pair.source, pair.target, algorithm="ida", heuristic="h1")
    assert result.status == "found"
    # unbounded runs keep the historical stats-dict shape
    assert "deadline_seconds" not in result.stats.as_dict()


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_deadline_must_be_positive(bad):
    with pytest.raises(ValueError):
        SearchConfig(deadline_seconds=bad)


def test_generous_deadline_does_not_change_result():
    pair = matching_pair(4)
    plain = discover_mapping(pair.source, pair.target, algorithm="ida", heuristic="h1")
    bounded = discover_mapping(
        pair.source,
        pair.target,
        algorithm="ida",
        heuristic="h1",
        config=SearchConfig(deadline_seconds=60.0),
    )
    assert bounded.status == "found"
    assert bounded.states_examined == plain.states_examined
    assert str(bounded.expression) == str(plain.expression)


def test_deadline_emits_trace_event():
    pair = matching_pair(7)
    sink = MemorySink()
    result = discover_mapping(
        pair.source,
        pair.target,
        algorithm="ida",
        heuristic="h0",
        config=SearchConfig(max_states=10_000_000, deadline_seconds=DEADLINE),
        tracer=Tracer(sink),
        simplify=False,
    )
    assert result.deadline_exceeded
    types = [event["event"] for event in sink.events]
    assert "deadline_exceeded" in types
    assert types[-1] == "search_end"


@pytest.mark.parametrize(
    "collector_on,deadline,paused",
    [(True, 60.0, True), (True, None, False), (False, 60.0, True)],
)
def test_deadline_run_holds_off_the_collector(collector_on, deadline, paused):
    """A bounded run disables the collector until it returns; none else does."""
    pair = matching_pair(3)
    seen: list[bool] = []
    was_enabled = gc.isenabled()
    if not collector_on:
        gc.disable()
    try:
        result = discover_mapping(
            pair.source,
            pair.target,
            algorithm="ida",
            heuristic="h0",
            config=SearchConfig(deadline_seconds=deadline),
            progress=lambda _update: seen.append(gc.isenabled()),
        )
        assert gc.isenabled() == collector_on
    finally:
        if was_enabled:
            gc.enable()
    assert result.status == "found"
    assert seen and set(seen) == {not paused}


# ---------------------------------------------------------------------------
# Cooperative cancellation
# ---------------------------------------------------------------------------


def test_cancel_token_basics():
    token = CancelToken()
    assert not token.cancelled
    assert not bool(token)
    token.cancel()
    assert token.cancelled
    assert bool(token)
    token.cancel()  # idempotent
    assert token.cancelled


def test_cancel_cuts_search_quickly():
    pair = matching_pair(7)
    token = CancelToken()
    cancelled_at = []

    def fire():
        cancelled_at.append(time.perf_counter())
        token.cancel()

    timer = threading.Timer(0.2, fire)
    timer.start()
    try:
        result = discover_mapping(
            pair.source,
            pair.target,
            algorithm="ida",
            heuristic="h0",
            config=SearchConfig(max_states=10_000_000),
            cancel=token,
            simplify=False,
        )
    finally:
        timer.cancel()
    latency = time.perf_counter() - cancelled_at[0]
    assert result.cancelled
    assert result.status == "cancelled"
    assert result.stats.states_examined > 0
    assert latency < 0.1  # responds within 100ms of the token firing


def test_stats_check_limits_raises_typed_errors():
    cancelled = SearchStats()
    cancelled.cancel_token = CancelToken()
    cancelled.cancel_token.cancel()
    with pytest.raises(SearchCancelled):
        cancelled.check_limits()

    expired = SearchStats()
    expired.deadline_seconds = 1e-9
    time.sleep(0.002)
    with pytest.raises(SearchDeadlineExceeded):
        expired.check_limits()


def test_stop_clock_is_idempotent():
    stats = SearchStats()
    time.sleep(0.01)
    stats.stop_clock()
    frozen = stats.elapsed_seconds
    assert frozen > 0
    time.sleep(0.01)
    stats.stop_clock()  # second call must be a no-op
    assert stats.elapsed_seconds == frozen


def test_limit_check_cadence_constant():
    # the cooperative polling cadence is part of the latency contract
    assert LIMIT_CHECK_EVERY == 16


# ---------------------------------------------------------------------------
# Fault-injection harness
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(site="x", kind="nope")
    with pytest.raises(ValueError):
        FaultSpec(site="x", kind="crash", scope="nope")
    with pytest.raises(ValueError):
        FaultSpec(site="x", kind="crash", at=0)
    with pytest.raises(ValueError):
        FaultSpec(site="x", kind="crash", times=-1)


def test_fault_spec_round_trip():
    spec = FaultSpec(site="a.b", kind="io_error", at=2, times=3, scope="worker", match="m")
    assert FaultSpec.from_dict(spec.to_dict()) == spec


def test_inject_hit_window():
    spec = FaultSpec(site="s", kind="io_error", at=2, times=2)
    with fault_plan(spec):
        inject("s")  # hit 1: before the window
        with pytest.raises(InjectedIOError):
            inject("s")  # hit 2
        with pytest.raises(InjectedIOError):
            inject("s")  # hit 3
        inject("s")  # hit 4: window exhausted
        inject("other.site")  # different site never fires


def test_inject_match_filter():
    with fault_plan(FaultSpec(site="s", kind="io_error", match="beam")):
        inject("s", key="ida")  # no match, no fire
        with pytest.raises(InjectedIOError):
            inject("s", key="beam-w20")


def test_inject_scope_gating():
    assert not in_worker()
    with fault_plan(FaultSpec(site="s", kind="io_error", scope="worker")):
        inject("s")  # parent process: worker-scoped fault stays quiet
        enter_worker()
        try:
            assert in_worker()
            with pytest.raises(InjectedIOError):
                inject("s")
        finally:
            deactivate()  # also resets the worker flag
    assert not in_worker()


def test_fault_env_transport_round_trip():
    spec = FaultSpec(site="s", kind="slow", delay=0.5)
    activate([spec], env=True)
    try:
        payload = json.loads(os.environ[FAULTS_ENV])
        assert [FaultSpec.from_dict(item) for item in payload] == [spec]
    finally:
        deactivate()
    assert FAULTS_ENV not in os.environ


def test_retry_call_recovers_and_counts():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise OSError("transient")
        return "ok"

    assert retry_call(flaky, site="t.flaky", base_delay=0.001) == "ok"
    assert len(calls) == 3
    assert resilience_counters()["resilience.retries"] == 2
    assert any(name == "retries" for name, _ in resilience_events())


def test_retry_call_exhausts_and_raises():
    def always():
        raise OSError("permanent")

    with pytest.raises(OSError):
        retry_call(always, site="t.always", retries=1, base_delay=0.001)
    assert resilience_counters()["resilience.retries"] == 1


def test_resilience_delta_and_absorb_round_trip():
    baseline = resilience_counters()
    resilience_warning("trace_write_errors", "worker-side failure")
    resilience_warning("trace_write_errors", "again")
    delta = resilience_delta(baseline)
    assert delta == {"resilience.trace_write_errors": 2}
    # the parent-side half: absorbing the shipped delta replays the counts
    reset_resilience()
    absorb_resilience(delta)
    assert resilience_counters()["resilience.trace_write_errors"] == 2
    absorb_resilience({})  # empty delta (serial fallback) is a no-op
    assert resilience_counters()["resilience.trace_write_errors"] == 2


def test_resilience_delta_drops_unchanged_names():
    resilience_warning("retries", "pre-existing")
    baseline = resilience_counters()
    resilience_warning("worker_crashes", "new since snapshot")
    assert resilience_delta(baseline) == {"resilience.worker_crashes": 1}


def test_backoff_delay_deterministic_and_bounded():
    first = backoff_delay("some.site", 1, 0.05)
    assert first == backoff_delay("some.site", 1, 0.05)
    assert backoff_delay("some.site", 2, 0.05) == backoff_delay("some.site", 2, 0.05)
    # exponential base with at most 25% jitter
    assert 0.05 <= backoff_delay("some.site", 1, 0.05) <= 0.05 * 1.25
    assert 0.10 <= backoff_delay("some.site", 2, 0.05) <= 0.10 * 1.25


# ---------------------------------------------------------------------------
# Fanout under faults: parallel -> serial, bit-identical
# ---------------------------------------------------------------------------

SIZES = (2, 3, 4)
BUDGET = 50_000


def _series(workers=0):
    return normalize_series(
        run_matching_series("ida", "h1", SIZES, budget=BUDGET, workers=workers)
    )


@pytest.fixture(scope="module")
def serial_baseline():
    return _series(workers=0)


def test_worker_crash_degrades_to_serial(serial_baseline):
    spec = FaultSpec(site=SITE_FANOUT_WORKER, kind="crash", times=0, scope="worker")
    with fault_plan(spec, env=True):
        got = _series(workers=2)
    counters = resilience_counters()
    assert got == serial_baseline
    assert counters["resilience.parallel_degraded"] == 1
    assert counters["resilience.serial_fallbacks"] == 1
    assert counters["resilience.retries"] == 2  # pool retried before giving up
    assert _no_leaked_children()


def test_transient_pool_fault_retries_then_succeeds(serial_baseline):
    spec = FaultSpec(site=SITE_FANOUT_POOL, kind="io_error", at=1, times=1)
    with fault_plan(spec):
        got = _series(workers=2)
    counters = resilience_counters()
    assert got == serial_baseline
    assert counters["resilience.retries"] == 1
    assert "resilience.serial_fallbacks" not in counters
    assert _no_leaked_children()


def test_slow_worker_still_completes(serial_baseline):
    spec = FaultSpec(site=SITE_FANOUT_WORKER, kind="slow", delay=0.2, scope="worker")
    with fault_plan(spec, env=True):
        got = _series(workers=2)
    assert got == serial_baseline
    assert "resilience.serial_fallbacks" not in resilience_counters()
    assert _no_leaked_children()


def test_fanout_worker_sink_fault_ships_trace_write_errors_home(
    serial_baseline, tmp_path
):
    # the header write is hit 1, so at=2 breaks the first event write in
    # each worker: its tracer degrades to untraced mid-point and the
    # warning must travel home in the chunk payload's resilience delta
    spec = FaultSpec(site=SITE_SINK_WRITE, kind="io_error", at=2, scope="worker")
    with fault_plan(spec, env=True):
        got = normalize_series(
            run_matching_series(
                "ida", "h1", SIZES, budget=BUDGET, workers=2, trace_dir=tmp_path
            )
        )
    counters = resilience_counters()
    assert got == serial_baseline  # degraded tracing never changes results
    assert "resilience.serial_fallbacks" not in counters  # pool path ran
    assert counters["resilience.trace_write_errors"] >= 1
    assert _no_leaked_children()


def test_strided_chunks_more_workers_than_points():
    chunks = strided_chunks(["a", "b", "c"], 8)
    assert chunks == [["a"], ["b"], ["c"]]  # empty chunks dropped
    assert strided_chunks(["a"], 8) == [["a"]]


# ---------------------------------------------------------------------------
# Tracing under faults: traced -> untraced
# ---------------------------------------------------------------------------


def test_sink_write_fault_degrades_tracer_not_search(tmp_path):
    pair = matching_pair(4)
    plain = discover_mapping(pair.source, pair.target, algorithm="ida", heuristic="h1")
    path = tmp_path / "trace.jsonl"
    with fault_plan(FaultSpec(site=SITE_SINK_WRITE, kind="io_error", at=5)):
        tracer = Tracer(JsonlSink(path))
        traced = discover_mapping(
            pair.source, pair.target, algorithm="ida", heuristic="h1", tracer=tracer
        )
        tracer.close()
    assert traced.status == "found"
    assert traced.states_examined == plain.states_examined
    assert str(traced.expression) == str(plain.expression)
    assert not tracer.enabled
    assert "InjectedIOError" in tracer.degraded_reason
    assert resilience_counters()["resilience.trace_write_errors"] == 1


def test_jsonl_sink_write_after_close_raises_typed_error(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl")
    sink.write({"type": "x"})
    sink.close()
    sink.close()  # idempotent
    with pytest.raises(TraceWriteError):
        sink.write({"type": "y"})


def test_jsonl_sink_write_fault_closes_file(tmp_path):
    sink = JsonlSink(tmp_path / "t.jsonl")
    with fault_plan(FaultSpec(site=SITE_SINK_WRITE, kind="io_error")):
        with pytest.raises(TraceWriteError):
            sink.write({"type": "x"})
    # the failed sink is already closed; closing again stays safe
    sink.close()


# ---------------------------------------------------------------------------
# Persistence of deadline metadata
# ---------------------------------------------------------------------------


def test_persist_round_trips_deadline_seconds():
    pair_sizes = (2, 3)
    series = run_matching_series(
        "ida", "h1", pair_sizes, budget=BUDGET, deadline_seconds=60.0
    )
    data = series_to_dict(series)
    for point in data["points"]:
        assert point["deadline_seconds"] == 60.0
    back = series_from_dict(data)
    assert back.points[0].deadline_seconds == 60.0


def test_persist_accepts_archives_without_deadline():
    series = run_matching_series("ida", "h1", (2,), budget=BUDGET)
    data = series_to_dict(series)
    for point in data["points"]:
        # unbounded runs keep the historical archive shape byte-for-byte
        assert "deadline_seconds" not in point
    back = series_from_dict(data)
    assert back.points[0].deadline_seconds == 0.0


def test_crash_exit_code_is_distinctive():
    assert CRASH_EXIT_CODE == 13
