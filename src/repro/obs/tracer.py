"""The tracer: typed event emission with pluggable sinks.

One :class:`Tracer` instruments one search run.  Instrumentation sites
throughout the kernel (:mod:`repro.search`, :mod:`repro.heuristics`) hold
the tracer via :attr:`repro.search.stats.SearchStats.tracer` and guard
every emission with the :attr:`Tracer.enabled` flag::

    tracer = stats.tracer
    if tracer.enabled:
        tracer.emit(EXPAND, depth=g, n=stats.states_examined)

With the default :class:`~repro.obs.sinks.NullSink` the guard is the whole
cost — one attribute load and one branch — so an untraced search is
bit-identical (results, counters, examined-state order) to a traced-with-
NullSink one; ``tests/test_trace_equivalence.py`` asserts exactly that.

Timestamps are ``time.perf_counter()`` offsets from the moment the tracer
was constructed: monotonic, sub-microsecond, and immune to wall-clock
steps (the same clock :class:`~repro.search.stats.SearchStats` uses for
its phase timers).
"""

from __future__ import annotations

from pathlib import Path
from time import perf_counter

from ..errors import TraceFormatError, TraceWriteError
from .events import SCHEMA_VERSION, SPAN_END, SPAN_START, TRACE_HEADER, validate_events
from .sinks import JsonlSink, MemorySink, NullSink, Sink


class SpanHandle:
    """One open span: a timed, nested region of a traced run.

    Obtained from :meth:`Tracer.span` and used as a context manager::

        with tracer.span("search", algorithm="ida") as sp:
            ...
            sp.annotate(examined=stats.states_examined)

    Entering emits a ``span_start`` event (with the span's id, its parent's
    id when nested, and any keyword attributes); exiting emits ``span_end``
    with the measured duration plus everything passed to :meth:`annotate`.
    Span ids are small integers unique within one tracer, so a trace's
    spans reassemble into a tree offline (:mod:`repro.obs.spans`).
    """

    __slots__ = ("tracer", "span_id", "parent_id", "name", "_attrs", "_t_start")

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: dict,
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self._attrs = attrs
        self._t_start = 0.0

    def annotate(self, **counters: object) -> None:
        """Attach counters to this span; emitted in its ``span_end`` event."""
        self._attrs.update(counters)

    def __enter__(self) -> "SpanHandle":
        tracer = self.tracer
        self._t_start = perf_counter()
        payload: dict = {"span": self.span_id}
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self._attrs:
            payload.update(self._attrs)
            self._attrs = {}
        tracer._span_stack.append(self.span_id)
        tracer.emit(SPAN_START, name=self.name, **payload)
        return self

    def __exit__(self, *exc_info: object) -> None:
        tracer = self.tracer
        dur = perf_counter() - self._t_start
        stack = tracer._span_stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        elif self.span_id in stack:  # out-of-order close; drop through it
            del stack[stack.index(self.span_id):]
        payload: dict = {"span": self.span_id, "dur": dur}
        if self.parent_id is not None:
            payload["parent"] = self.parent_id
        if self._attrs:
            payload.update(self._attrs)
        tracer.emit(SPAN_END, name=self.name, **payload)


class _NullSpan:
    """Shared no-op span returned by a disabled tracer — zero allocation."""

    __slots__ = ()

    def annotate(self, **counters: object) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Emit typed trace events into a sink.

    Args:
        sink: event destination; defaults to a :class:`NullSink`, which
            makes :attr:`enabled` False and every :meth:`emit` a no-op.

    A sink that fails mid-run (:class:`~repro.errors.TraceWriteError` or a
    raw ``OSError`` from a custom sink) does not abort the search: the
    tracer *degrades* — closes the broken sink, swaps in a
    :class:`NullSink`, disables itself, and records one
    ``resilience.trace_write_errors`` warning.  The run finishes untraced;
    :attr:`degraded_reason` says why.
    """

    __slots__ = (
        "sink",
        "enabled",
        "seq",
        "_t0",
        "degraded_reason",
        "_span_seq",
        "_span_stack",
    )

    def __init__(self, sink: Sink | None = None) -> None:
        self.sink = sink if sink is not None else NullSink()
        self.enabled = self.sink.enabled
        self.seq = 0
        self._t0 = perf_counter()
        #: set to the failure description if the tracer degraded mid-run
        self.degraded_reason: str | None = None
        self._span_seq = 0
        self._span_stack: list[int] = []

    def emit(self, event: str, **payload: object) -> None:
        """Record one event (no-op when the sink is disabled)."""
        if not self.enabled:
            return
        self.seq += 1
        record: dict = {
            "event": event,
            "seq": self.seq,
            "t": perf_counter() - self._t0,
        }
        if payload:
            record.update(payload)
        try:
            self.sink.write(record)
        except (TraceWriteError, OSError) as exc:
            self._degrade(exc)

    def span(self, name: str, **attrs: object) -> "SpanHandle | _NullSpan":
        """Open a nested, timed span (shared no-op handle when disabled).

        Returns a context manager; the span nests under whichever span is
        currently open on this tracer.  Attributes given here ride on the
        ``span_start`` event; counters attached later via
        :meth:`SpanHandle.annotate` ride on ``span_end``.
        """
        if not self.enabled:
            return _NULL_SPAN
        self._span_seq += 1
        parent = self._span_stack[-1] if self._span_stack else None
        return SpanHandle(self, self._span_seq, parent, name, attrs)

    def _degrade(self, exc: BaseException) -> None:
        """Swap the broken sink for a NullSink and keep the run alive."""
        from ..resilience.runtime import resilience_warning

        self.degraded_reason = f"{type(exc).__name__}: {exc}"
        resilience_warning("trace_write_errors", self.degraded_reason)
        try:
            self.sink.close()
        except (TraceWriteError, OSError):  # already broken; nothing to save
            pass
        self.sink = NullSink()
        self.enabled = False

    def close(self) -> None:
        """Close the underlying sink (exception-safe on broken sinks)."""
        try:
            self.sink.close()
        except (TraceWriteError, OSError):
            pass

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"<Tracer sink={type(self.sink).__name__} "
            f"enabled={self.enabled} events={self.seq}>"
        )


#: shared do-nothing tracer — the default on every SearchStats, so the
#: kernel never needs a None check, only the ``enabled`` branch
NULL_TRACER = Tracer(NullSink())


def memory_tracer() -> tuple[Tracer, MemorySink]:
    """Convenience: a tracer recording into a fresh in-memory sink."""
    sink = MemorySink()
    return Tracer(sink), sink


def load_trace(path: str | Path, validate: bool = True) -> list[dict]:
    """Read a JSONL trace back as a list of event records.

    The leading ``trace_header`` record is checked against
    :data:`~repro.obs.events.SCHEMA_VERSION` and stripped, so callers see
    only search events.  With *validate* (default) the remaining stream is
    schema-checked via :func:`~repro.obs.events.validate_events`.

    Raises:
        TraceFormatError: missing/foreign header, version mismatch,
            malformed JSON line, or (when validating) a bad record.
    """
    from ..serialize import json_loads

    path = Path(path)
    records: list[dict] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json_loads(line))
            except ValueError as err:
                raise TraceFormatError(
                    f"{path}:{lineno}: not valid JSON: {err}"
                ) from err
    if not records or records[0].get("event") != TRACE_HEADER:
        raise TraceFormatError(
            f"{path}: missing trace_header record (not a repro trace?)"
        )
    version = records[0].get("schema_version")
    if version != SCHEMA_VERSION:
        raise TraceFormatError(
            f"{path}: trace schema version {version!r} unsupported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    events = records[1:]
    if validate:
        validate_events(events)
    return events


def record_jsonl(path: str | Path) -> Tracer:
    """A tracer streaming to *path* (``OSError`` raised here if unwritable)."""
    return Tracer(JsonlSink(path))
