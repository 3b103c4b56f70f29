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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".events": (
            "PROGRESS", "SPAN_END", "SPAN_START", "BUDGET_EXCEEDED",
            "CACHE_HIT", "CACHE_MISS", "CACHE_NAMES", "CANCELLED",
            "DEADLINE_EXCEEDED", "ENVELOPE_FIELDS", "EVENT_FIELDS",
            "EVENT_TYPES", "EXPAND", "GENERATE", "GOAL_TEST",
            "ITERATION_START", "PRUNE", "SCHEMA_VERSION", "SEARCH_END",
            "SEARCH_START", "SOLUTION", "TRACE_HEADER", "validate_event",
            "validate_events",
        ),
        ".merge": (
            "MergedTrace", "TraceSource", "discover_trace_files",
            "load_trace_lenient", "merge_report", "merge_traces",
            "merged_counters", "write_merged",
        ),
        ".progress": (
            "CallbackProgress", "ConsoleProgress", "ProgressSink",
            "ProgressUpdate",
        ),
        ".report": ("replay_counters", "run_profile"),
        ".sinks": (
            "SINK_NAMES", "JsonlSink", "LoggingSink", "MemorySink", "NullSink",
            "Sink",
        ),
        ".spans": (
            "SpanNode", "build_span_tree", "collapsed_stacks",
            "render_span_tree",
        ),
        ".tracer": (
            "SpanHandle", "NULL_TRACER", "Tracer", "load_trace",
            "memory_tracer", "record_jsonl",
        ),
    },
)
