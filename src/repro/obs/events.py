"""Trace event taxonomy and schema.

A trace is an ordered stream of flat dict records.  Every record carries
three envelope fields —

* ``event``: the type tag (one of :data:`EVENT_TYPES`),
* ``seq``: a 1-based monotonically increasing sequence number,
* ``t``: seconds since the tracer was armed (``time.perf_counter`` based,
  so monotonic and immune to wall-clock adjustment),

plus the type-specific payload fields listed in :data:`EVENT_FIELDS`.
Payloads are JSON-scalar only (numbers, strings, bools, None) except for
``generate.ops`` (a ``{family: count}`` dict) and ``solution.ops`` (a list
of operator strings), keeping every record one JSONL line.

Persisted traces start with a ``trace_header`` record stamping
:data:`SCHEMA_VERSION`; :func:`repro.obs.tracer.load_trace` refuses files
whose header is missing or stamps a different version, so old traces fail
loudly instead of silently mis-replaying.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import TraceFormatError

#: bump whenever an event type or payload field changes meaning
SCHEMA_VERSION = 1

# -- event type tags ----------------------------------------------------------

#: first record of every persisted trace (written by JsonlSink)
TRACE_HEADER = "trace_header"
#: one search run begins (algorithm, heuristic, budget)
SEARCH_START = "search_start"
#: an IDA* deepening iteration / RBFS re-expansion / beam layer begins
ITERATION_START = "iteration_start"
#: a state is examined (goal-tested) — the paper's §5 metric, one per count
EXPAND = "expand"
#: a successor list was delivered for an examined state
GENERATE = "generate"
#: a goal-containment test returned a verdict
GOAL_TEST = "goal_test"
#: a memo cache (successor / goal / heuristic) served a lookup
CACHE_HIT = "cache_hit"
#: a memo cache had to compute the looked-up value
CACHE_MISS = "cache_miss"
#: a candidate successor was discarded before examination
PRUNE = "prune"
#: a goal state was reached; payload carries the operator path
SOLUTION = "solution"
#: the state budget was exhausted; the run aborts
BUDGET_EXCEEDED = "budget_exceeded"
#: the wall-clock deadline was exceeded; the run aborts with partial stats
DEADLINE_EXCEEDED = "deadline_exceeded"
#: the run's CancelToken was observed set; the run unwinds cooperatively
CANCELLED = "cancelled"
#: the run is over; payload carries the final SearchStats snapshot
SEARCH_END = "search_end"
#: a nested, timed span opens (discovery phase / expansion loop)
SPAN_START = "span_start"
#: a span closes; payload carries its duration and attached counters
SPAN_END = "span_end"
#: periodic live-progress heartbeat (examined / elapsed / frontier / best-f),
#: emitted at the LIMIT_CHECK_EVERY cadence from the existing limit polls
PROGRESS = "progress"
#: a mapping was compiled for an execution backend
BACKEND_COMPILE = "backend_compile"
#: a compiled script finished executing on a backend
BACKEND_EXECUTE = "backend_execute"
#: the warm-start store served a verified mapping (kind: memo)
STORE_HIT = "store_hit"
#: the warm-start store had no verified mapping for a lookup (kind: memo)
STORE_MISS = "store_miss"
#: the warm-start store recorded a discovered mapping (kind: memo)
STORE_WRITE = "store_write"

#: every event type a trace may contain, in rough lifecycle order.
#: (Additions here are backwards-compatible — new event types extend the
#: taxonomy without changing the meaning of existing records, so they do
#: not bump SCHEMA_VERSION.)
EVENT_TYPES: tuple[str, ...] = (
    TRACE_HEADER,
    SEARCH_START,
    ITERATION_START,
    EXPAND,
    GENERATE,
    GOAL_TEST,
    CACHE_HIT,
    CACHE_MISS,
    PRUNE,
    SOLUTION,
    BUDGET_EXCEEDED,
    DEADLINE_EXCEEDED,
    CANCELLED,
    SEARCH_END,
    SPAN_START,
    SPAN_END,
    PROGRESS,
    BACKEND_COMPILE,
    BACKEND_EXECUTE,
    STORE_HIT,
    STORE_MISS,
    STORE_WRITE,
)

#: envelope fields present on every record
ENVELOPE_FIELDS: tuple[str, ...] = ("event", "seq", "t")

#: required payload fields per event type (extra fields are always allowed)
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    TRACE_HEADER: ("schema_version",),
    SEARCH_START: ("algorithm", "heuristic", "budget"),
    ITERATION_START: ("n",),
    EXPAND: ("depth", "n"),
    GENERATE: ("count",),
    GOAL_TEST: ("verdict",),
    CACHE_HIT: ("cache",),
    CACHE_MISS: ("cache",),
    PRUNE: ("reason",),
    SOLUTION: ("size",),
    BUDGET_EXCEEDED: ("budget", "examined"),
    DEADLINE_EXCEEDED: ("deadline", "elapsed", "examined"),
    CANCELLED: ("examined",),
    SEARCH_END: ("status",),
    SPAN_START: ("span", "name"),
    SPAN_END: ("span", "name", "dur"),
    PROGRESS: ("examined", "elapsed"),
    BACKEND_COMPILE: ("backend", "statements"),
    BACKEND_EXECUTE: ("backend", "statements", "dur"),
    STORE_HIT: ("kind",),
    STORE_MISS: ("kind",),
    STORE_WRITE: ("kind",),
}

#: cache labels used by cache_hit / cache_miss events
CACHE_NAMES: tuple[str, ...] = ("successor", "goal", "heuristic")


def validate_event(record: Mapping, position: int = 0) -> None:
    """Check one record against the schema; raise TraceFormatError if bad."""
    if not isinstance(record, Mapping):
        raise TraceFormatError(f"record {position}: not a mapping: {record!r}")
    for key in ENVELOPE_FIELDS:
        if key not in record:
            raise TraceFormatError(
                f"record {position}: missing envelope field {key!r}"
            )
    event = record["event"]
    if event not in EVENT_FIELDS:
        raise TraceFormatError(
            f"record {position}: unknown event type {event!r}"
        )
    missing = [key for key in EVENT_FIELDS[event] if key not in record]
    if missing:
        raise TraceFormatError(
            f"record {position}: {event} record missing field(s) {missing}"
        )


def validate_events(events: Iterable[Mapping]) -> int:
    """Validate a whole event stream (schema + monotone seq / t).

    Returns the number of records checked.

    Raises:
        TraceFormatError: on the first malformed record or ordering
            violation.
    """
    count = 0
    last_seq: int | None = None
    last_t: float | None = None
    for position, record in enumerate(events):
        validate_event(record, position)
        seq, t = record["seq"], record["t"]
        if last_seq is not None and seq <= last_seq:
            raise TraceFormatError(
                f"record {position}: seq {seq} not increasing (after {last_seq})"
            )
        if last_t is not None and t < last_t:
            raise TraceFormatError(
                f"record {position}: timestamp {t} went backwards (after {last_t})"
            )
        last_seq, last_t = seq, t
        count += 1
    return count
