"""The front door for executing discovered mappings.

:func:`execute_mapping` is the one-call API: give it a mapping expression
and a source instance, and it picks an engine (``backend="auto"`` takes
sqlite when sqlite can run the mapping faithfully, and the reference
interpreter otherwise), compiles the pipeline into that engine's dialect,
executes it, and hands back the resulting
:class:`~repro.relational.database.Database` together with the compiled
script and timings.  Telemetry rides along as ``backend_compile`` /
``backend_execute`` trace events on an optional
:class:`~repro.obs.tracer.Tracer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

from ..errors import (
    BackendUnsupportedError,
    SearchDeadlineExceeded,
    UnknownBackendError,
)
from ..fira.expression import MappingExpression
from ..fira.sqlcompile import SqlScript
from ..obs.events import BACKEND_COMPILE, BACKEND_EXECUTE
from ..relational.database import Database
from .base import SqlBackend
from .minisql_backend import MiniSqlBackend
from .sqlite_backend import SqliteBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tracer import Tracer
    from ..search.cancel import CancelToken
    from ..semantics.functions import FunctionRegistry

#: the dispatch pseudo-backend name
AUTO = "auto"

_BACKENDS: dict[str, SqlBackend] = {
    b.name: b for b in (MiniSqlBackend(), SqliteBackend())
}


def backend_names() -> tuple[str, ...]:
    """All registered backend names, sorted."""
    return tuple(sorted(_BACKENDS))


def get_backend(name: str) -> SqlBackend:
    """Look up a backend by name.

    Raises:
        UnknownBackendError: naming the known backends (the CLI turns this
            into an exit-code-2 usage error).
    """
    try:
        return _BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(name, backend_names()) from None


@dataclass(frozen=True)
class ExecutionResult:
    """What one mapping execution produced.

    Attributes:
        backend: name of the engine that ran the script.
        script: the compiled script (in that engine's dialect).
        database: the resulting instance, bit-comparable across backends.
        compile_seconds / execute_seconds: wall-clock timings.
    """

    backend: str
    script: SqlScript
    database: Database
    compile_seconds: float
    execute_seconds: float


def execute_mapping(
    expression: MappingExpression,
    source: Database,
    backend: str = AUTO,
    registry: "FunctionRegistry | None" = None,
    deadline: float | None = None,
    cancel: "CancelToken | None" = None,
    tracer: "Tracer | None" = None,
) -> ExecutionResult:
    """Compile and run *expression* over *source*; see module docs.

    *backend* is a backend name, or ``"auto"``: sqlite when its
    :meth:`~repro.backends.base.SqlBackend.why_unsupported` returns None,
    minisql otherwise.  Under ``auto``, a sqlite decline at compile (a
    name that only the compile replay meets) also hands the mapping to
    minisql.  *tracer* receives ``backend_compile`` / ``backend_execute``
    events.  *deadline* counts from this call: the capability check and
    compile spend it first, and the engine runs its statements under what
    is left.

    Raises:
        UnknownBackendError: *backend* names no registered backend.
        BackendUnsupportedError: an explicit *backend* declines the
            mapping, with the reason.
    """
    started = perf_counter()
    engine = get_backend("sqlite" if backend == AUTO else backend)
    reason = engine.why_unsupported(expression, source)
    if reason is not None:
        if backend != AUTO:
            raise BackendUnsupportedError(engine.name, reason)
        engine = _BACKENDS["minisql"]  # the reference declines nothing

    t0 = perf_counter()
    try:
        script = engine.compile(expression, source, registry)
    except BackendUnsupportedError:
        if backend != AUTO:
            raise
        engine = _BACKENDS["minisql"]
        script = engine.compile(expression, source, registry)
    compile_seconds = perf_counter() - t0
    if tracer is not None:
        tracer.emit(
            BACKEND_COMPILE,
            backend=engine.name,
            statements=script.statement_count,
        )

    remaining = None
    if deadline is not None:
        elapsed = perf_counter() - started
        if elapsed > deadline:
            raise SearchDeadlineExceeded(deadline, elapsed, 0)
        remaining = deadline - elapsed

    t1 = perf_counter()
    try:
        database = engine.execute(
            script,
            source,
            registry=registry,
            deadline=remaining,
            cancel=cancel,
        )
    except SearchDeadlineExceeded as exc:
        raise SearchDeadlineExceeded(
            deadline, perf_counter() - started, exc.states_examined
        ) from None
    execute_seconds = perf_counter() - t1
    if tracer is not None:
        tracer.emit(
            BACKEND_EXECUTE,
            backend=engine.name,
            statements=script.statement_count,
            dur=execute_seconds,
        )

    return ExecutionResult(
        backend=engine.name,
        script=script,
        database=database,
        compile_seconds=compile_seconds,
        execute_seconds=execute_seconds,
    )
