"""repro.obs — the TUPELO telemetry layer.

Structured tracing (typed events, pluggable sinks) and run-inspection
tooling (trace replay + ASCII run profiles).  A run's counters live on
its :class:`~repro.search.stats.SearchStats` (``result.stats``) and in the
trace's ``search_end`` record; :func:`replay_counters` rebuilds them
offline.  See ``docs/observability.md`` for the event taxonomy and usage
patterns.

Quick use::

    from repro import discover_mapping
    from repro.obs import MemorySink, Tracer, run_profile

    sink = MemorySink()
    result = discover_mapping(src, tgt, algorithm="ida", heuristic="h0",
                              tracer=Tracer(sink))
    print(run_profile(sink.events))
"""

from .events import (
    BUDGET_EXCEEDED,
    CACHE_HIT,
    CACHE_MISS,
    CACHE_NAMES,
    CANCELLED,
    DEADLINE_EXCEEDED,
    ENVELOPE_FIELDS,
    EVENT_FIELDS,
    EVENT_TYPES,
    EXPAND,
    GENERATE,
    GOAL_TEST,
    ITERATION_START,
    PRUNE,
    SCHEMA_VERSION,
    SEARCH_END,
    SEARCH_START,
    SOLUTION,
    TRACE_HEADER,
    validate_event,
    validate_events,
)
from .events import PROGRESS, SPAN_END, SPAN_START
from .merge import (
    MergedTrace,
    TraceSource,
    discover_trace_files,
    load_trace_lenient,
    merge_report,
    merge_traces,
    merged_counters,
    write_merged,
)
from .progress import (
    CallbackProgress,
    ConsoleProgress,
    ProgressSink,
    ProgressUpdate,
)
from .report import replay_counters, run_profile
from .spans import (
    SpanNode,
    build_span_tree,
    collapsed_stacks,
    render_span_tree,
)
from .sinks import (
    SINK_NAMES,
    JsonlSink,
    LoggingSink,
    MemorySink,
    NullSink,
    Sink,
)
from .tracer import (
    NULL_TRACER,
    SpanHandle,
    Tracer,
    load_trace,
    memory_tracer,
    record_jsonl,
)

__all__ = [
    "PROGRESS",
    "SPAN_END",
    "SPAN_START",
    "MergedTrace",
    "TraceSource",
    "discover_trace_files",
    "load_trace_lenient",
    "merge_report",
    "merge_traces",
    "merged_counters",
    "write_merged",
    "CallbackProgress",
    "ConsoleProgress",
    "ProgressSink",
    "ProgressUpdate",
    "SpanHandle",
    "SpanNode",
    "build_span_tree",
    "collapsed_stacks",
    "render_span_tree",
    "BUDGET_EXCEEDED",
    "CACHE_HIT",
    "CACHE_MISS",
    "CACHE_NAMES",
    "CANCELLED",
    "DEADLINE_EXCEEDED",
    "ENVELOPE_FIELDS",
    "EVENT_FIELDS",
    "EVENT_TYPES",
    "EXPAND",
    "GENERATE",
    "GOAL_TEST",
    "ITERATION_START",
    "PRUNE",
    "SCHEMA_VERSION",
    "SEARCH_END",
    "SEARCH_START",
    "SOLUTION",
    "TRACE_HEADER",
    "validate_event",
    "validate_events",
    "replay_counters",
    "run_profile",
    "SINK_NAMES",
    "JsonlSink",
    "LoggingSink",
    "MemorySink",
    "NullSink",
    "Sink",
    "NULL_TRACER",
    "Tracer",
    "load_trace",
    "memory_tracer",
    "record_jsonl",
]
