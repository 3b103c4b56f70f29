"""Trace sinks — where :class:`~repro.obs.tracer.Tracer` events go.

Each sink consumes flat event records (see :mod:`repro.obs.events`).  The
class attribute :attr:`Sink.enabled` is the zero-overhead switch: the
tracer checks it once per *potential* event, so a disabled sink
(:class:`NullSink`, the default) costs exactly one attribute load and one
branch per instrumentation site — the invariant
``tests/test_trace_equivalence.py`` locks down.

A writer's dependencies (the JSON serializer and fault site, or
:mod:`logging`) load when its first sink is built.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import IO, TYPE_CHECKING, Mapping

from ..errors import TraceWriteError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import logging

#: stdlib logger the LoggingSink bridges to
TRACE_LOGGER_NAME = "repro.obs.trace"

#: fault-injection site guarding every JsonlSink record write
SITE_SINK_WRITE = "sink.write"


class Sink:
    """Base sink: receives event records; subclasses decide what to keep."""

    #: consulted (not called) by the tracer before building any record
    enabled: bool = True

    def write(self, record: Mapping) -> None:
        """Consume one event record."""
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release any resources (idempotent)."""

    def __enter__(self) -> "Sink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullSink(Sink):
    """Discard everything — the zero-overhead default.

    ``enabled`` is False, so the tracer never even constructs records;
    tracing with a NullSink is bit-identical to not tracing at all.
    """

    enabled = False

    def write(self, record: Mapping) -> None:  # pragma: no cover - never called
        pass


class MemorySink(Sink):
    """Keep events in an in-process list (tests, interactive inspection)."""

    def __init__(self) -> None:
        self.events: list[dict] = []

    def write(self, record: Mapping) -> None:
        self.events.append(dict(record))

    def __len__(self) -> int:
        return len(self.events)


class JsonlSink(Sink):
    """Stream events to a file, one JSON object per line.

    The file is opened (and the ``trace_header`` record stamped with
    :data:`~repro.obs.events.SCHEMA_VERSION`) at construction time, so an
    unwritable path fails fast with ``OSError`` before any search runs.
    Lines rely on normal file buffering; :meth:`close` flushes.  Long runs
    can therefore stream millions of events without holding them in memory.

    A write that fails *mid-run* (disk full, fd revoked) raises
    :class:`~repro.errors.TraceWriteError` after closing the handle, so a
    broken sink is never left half-open and a retry can never interleave a
    torn line.  :meth:`close` is idempotent and exception-safe: the handle
    is detached before ``close()`` is attempted, and a flush-time
    ``OSError`` is swallowed — the trace is already lost, and close runs
    on unwind paths that must not mask the original failure.
    """

    def __init__(self, path: str | Path) -> None:
        # Bound as module globals: write() reads each with one global load.
        global inject, json_dumps_compact
        from ..resilience.faults import inject
        from ..serialize import json_dumps_compact
        from .events import SCHEMA_VERSION, TRACE_HEADER

        self.path = Path(path)
        self._fh: IO[str] | None = self.path.open("w", encoding="utf-8")
        # wall/pid anchor the header so cross-process traces can be merged
        # onto one timeline (event timestamps are per-process perf_counter
        # offsets and not comparable across workers on their own)
        self.write(
            {
                "event": TRACE_HEADER,
                "seq": 0,
                "t": 0.0,
                "schema_version": SCHEMA_VERSION,
                "wall": time.time(),
                "pid": os.getpid(),
            }
        )

    def write(self, record: Mapping) -> None:
        if self._fh is None:
            raise TraceWriteError(str(self.path), "sink is closed")
        try:
            inject(SITE_SINK_WRITE, key=str(self.path))
            self._fh.write(json_dumps_compact(record) + "\n")
        except OSError as exc:
            self.close()
            raise TraceWriteError(
                str(self.path), f"{type(exc).__name__}: {exc}"
            ) from exc

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            try:
                fh.close()
            except OSError:  # flush failure on a dying fd; trace already lost
                pass


class LoggingSink(Sink):
    """Bridge events to stdlib :mod:`logging` (one DEBUG/INFO line each).

    Useful when a deployment already ships structured logs: events render
    as ``event_type key=value ...`` lines under the ``repro.obs.trace``
    logger, so ordinary log routing/filtering applies.
    """

    def __init__(
        self, logger: logging.Logger | None = None, level: int | None = None
    ) -> None:
        import logging

        self.logger = logger if logger is not None else logging.getLogger(
            TRACE_LOGGER_NAME
        )
        #: ``logging.INFO`` unless given
        self.level = logging.INFO if level is None else level

    def write(self, record: Mapping) -> None:
        payload = " ".join(
            f"{key}={record[key]}" for key in sorted(record) if key != "event"
        )
        self.logger.log(self.level, "%s %s", record.get("event"), payload)


#: names accepted by the CLI / reported by ``repro info``
SINK_NAMES: tuple[str, ...] = ("null", "memory", "jsonl", "logging")
