"""Telemetry is semantically invisible: traced == untraced, bit for bit.

The zero-overhead contract of `repro.obs` has a stronger sibling: tracing
must never change what the search *does*.  Every algorithm x heuristic
combination must return the identical result — same status, same operator
sequence, same counters, same states examined *in the same order* —
whether the run is untraced (the shared NULL_TRACER default), traced into
a NullSink, or traced into a real MemorySink.  Telemetry may only observe.
"""

from __future__ import annotations

import pytest

from repro.errors import MappingNotFound, SearchBudgetExceeded
from repro.heuristics import HEURISTIC_NAMES, make_heuristic
from repro.obs import MemorySink, NullSink, Tracer
from repro.search import (
    ALGORITHMS,
    MappingProblem,
    SearchConfig,
    SearchStats,
    discover_mapping,
)
from repro.workloads import matching_pair

#: blind-ish heuristics explode combinatorially — keep their workload tiny
BLIND = ("h0", "h2")
BUDGET = 100_000


def run_search(algorithm: str, heuristic: str, size: int, tracer=None):
    """One raw algorithm invocation, returning (status, ops, stats)."""
    pair = matching_pair(size)
    config = SearchConfig(max_states=BUDGET)
    problem = MappingProblem(pair.source, pair.target, config=config)
    h = make_heuristic(heuristic, pair.target, algorithm=algorithm)
    stats = SearchStats(budget=BUDGET, trace=True)
    if tracer is not None:
        stats.tracer = tracer
    try:
        ops = ALGORITHMS[algorithm](problem, h, stats)
        status = "found"
    except MappingNotFound:
        ops, status = None, "not_found"
    except SearchBudgetExceeded:
        ops, status = None, "budget_exceeded"
    return status, ops, stats


def assert_identical(base, other):
    status_a, ops_a, stats_a = base
    status_b, ops_b, stats_b = other
    assert status_a == status_b
    assert [str(op) for op in (ops_a or [])] == [str(op) for op in (ops_b or [])]
    assert stats_a.states_examined == stats_b.states_examined
    assert stats_a.states_generated == stats_b.states_generated
    assert stats_a.iterations == stats_b.iterations
    assert stats_a.max_depth == stats_b.max_depth
    assert stats_a.cache_hits == stats_b.cache_hits
    assert stats_a.cache_misses == stats_b.cache_misses
    # not just the same counts — the same states in the same order
    assert stats_a.examined_states == stats_b.examined_states


@pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_nullsink_trace_is_bit_identical(algorithm, heuristic):
    size = 3 if heuristic in BLIND else 5
    untraced = run_search(algorithm, heuristic, size, tracer=None)
    nullsunk = run_search(
        algorithm, heuristic, size, tracer=Tracer(NullSink())
    )
    assert_identical(untraced, nullsunk)


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_live_trace_is_bit_identical(algorithm):
    """Even a *recording* tracer must not perturb the search itself."""
    untraced = run_search(algorithm, "h1", 5, tracer=None)
    sink = MemorySink()
    traced = run_search(algorithm, "h1", 5, tracer=Tracer(sink))
    assert_identical(untraced, traced)
    assert len(sink) > 0


def test_event_stream_covers_the_run():
    """The recorded stream carries every examination, in order."""
    sink = MemorySink()
    status, _, stats = run_search("ida", "h0", 3, tracer=Tracer(sink))
    assert status == "found"
    expands = [e for e in sink.events if e["event"] == "expand"]
    assert len(expands) == stats.states_examined
    # expand events carry the running examination count, 1..N in order
    assert [e["n"] for e in expands] == list(
        range(1, stats.states_examined + 1)
    )


# -- engine-level equivalence: spans and progress may only observe ----------


def engine_run(algorithm, heuristic, size, tracer=None, progress=None):
    """One full discover_mapping run (spans + heartbeats live here)."""
    pair = matching_pair(size)
    return discover_mapping(
        pair.source,
        pair.target,
        algorithm=algorithm,
        heuristic=heuristic,
        config=SearchConfig(max_states=BUDGET),
        simplify=False,
        tracer=tracer,
        progress=progress,
    )


def assert_results_identical(base, other):
    assert other.status == base.status
    assert str(other.expression) == str(base.expression)
    assert other.stats.states_examined == base.stats.states_examined
    assert other.stats.states_generated == base.stats.states_generated
    assert other.stats.iterations == base.stats.iterations
    assert other.stats.max_depth == base.stats.max_depth
    assert other.stats.cache_hits == base.stats.cache_hits
    assert other.stats.cache_misses == base.stats.cache_misses


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_spans_and_progress_are_bit_identical(algorithm):
    """Span emission and the heartbeat gate must not perturb the search."""
    plain = engine_run(algorithm, "h1", 5)
    sink = MemorySink()
    updates = []
    both = engine_run(
        algorithm, "h1", 5, tracer=Tracer(sink), progress=updates.append
    )
    progress_only = engine_run(algorithm, "h1", 5, progress=lambda u: None)
    assert_results_identical(plain, both)
    assert_results_identical(plain, progress_only)
    # spans frame the stream: discover opens it, search_end still closes it
    events = sink.events
    assert events[0]["event"] == "span_start"
    assert events[0]["name"] == "discover"
    assert events[-1]["event"] == "search_end"
    started = [e["span"] for e in events if e["event"] == "span_start"]
    ended = [e["span"] for e in events if e["event"] == "span_end"]
    assert sorted(started) == sorted(ended)


@pytest.mark.parametrize("heuristic", ("h0", "h1"))
def test_progress_heartbeats_do_not_change_the_answer(heuristic):
    """Heartbeat-heavy (h0) and heartbeat-free (h1) runs both hold up."""
    plain = engine_run("ida", heuristic, 4)
    updates = []
    observed = engine_run("ida", heuristic, 4, progress=updates.append)
    assert_results_identical(plain, observed)
    if updates:
        examined = [u.examined for u in updates]
        assert examined == sorted(examined)
        assert updates[-1].examined <= observed.stats.states_examined
