"""The dialect-dispatching front door for executing discovered mappings.

:func:`execute_mapping` is the one-call API: give it a mapping expression
and a source instance, and it picks an engine (``backend="auto"`` prefers
the fastest *faithful* engine available — duckdb, then sqlite, then the
reference interpreter), compiles the pipeline into that engine's dialect,
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
from .duckdb_backend import DuckDbBackend
from .minisql_backend import MiniSqlBackend
from .sqlite_backend import SqliteBackend

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tracer import Tracer
    from ..search.cancel import CancelToken
    from ..semantics.functions import FunctionRegistry

#: auto-dispatch preference: fastest faithful engine first, reference last
AUTO_ORDER: tuple[str, ...] = ("duckdb", "sqlite", "minisql")

#: the dispatch pseudo-backend name
AUTO = "auto"


def _registry() -> dict[str, SqlBackend]:
    return {
        b.name: b for b in (MiniSqlBackend(), SqliteBackend(), DuckDbBackend())
    }


_BACKENDS = _registry()


def backend_names() -> tuple[str, ...]:
    """All registered backend names (regardless of availability), sorted."""
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


def available_backends() -> tuple[SqlBackend, ...]:
    """The backends that can actually run in this environment."""
    return tuple(
        b for b in _BACKENDS.values() if b.is_available()
    )


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


class Executor:
    """Dialect-dispatching mapping executor with telemetry.

    Args:
        backend: a backend name, or ``"auto"`` to pick the first engine in
            :data:`AUTO_ORDER` that is available **and** supports the
            mapping/instance at hand (falling back to the reference engine,
            which supports everything).
        tracer: optional tracer receiving ``backend_compile`` /
            ``backend_execute`` events.
    """

    def __init__(
        self,
        backend: str = AUTO,
        tracer: "Tracer | None" = None,
    ) -> None:
        if backend != AUTO:
            get_backend(backend)  # validate eagerly: raises UnknownBackendError
        self.backend = backend
        self.tracer = tracer

    def resolve(
        self,
        expression: MappingExpression,
        source: Database | None = None,
    ) -> SqlBackend:
        """The concrete backend the capability check picks for this mapping.

        Under ``auto``, an engine that then declines at compile (a name
        that only the compile replay meets) hands the mapping to minisql.
        """
        if self.backend != AUTO:
            return get_backend(self.backend)
        for name in AUTO_ORDER:
            candidate = _BACKENDS[name]
            if candidate.is_available() and candidate.supports(
                expression, source
            ):
                return candidate
        return _BACKENDS["minisql"]

    def execute(
        self,
        expression: MappingExpression,
        source: Database,
        registry: "FunctionRegistry | None" = None,
        deadline: float | None = None,
        cancel: "CancelToken | None" = None,
    ) -> ExecutionResult:
        """Compile and run *expression* over *source*; see module docs.

        *deadline* counts from this call: compile spends it first, and the
        engine runs its statements under what is left.
        """
        started = perf_counter()
        if self.backend == AUTO:
            backend = self.resolve(expression, source)  # checked while choosing
        else:
            backend = get_backend(self.backend)
            backend.require_available()
            backend.require_supported(expression, source)

        t0 = perf_counter()
        try:
            script = backend.compile(expression, source, registry)
        except BackendUnsupportedError:
            if self.backend != AUTO:
                raise
            backend = _BACKENDS["minisql"]  # the reference declines nothing
            script = backend.compile(expression, source, registry)
        compile_seconds = perf_counter() - t0
        if self.tracer is not None:
            self.tracer.emit(
                BACKEND_COMPILE,
                backend=backend.name,
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
            database = backend.execute(
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
        if self.tracer is not None:
            self.tracer.emit(
                BACKEND_EXECUTE,
                backend=backend.name,
                statements=script.statement_count,
                dur=execute_seconds,
            )

        return ExecutionResult(
            backend=backend.name,
            script=script,
            database=database,
            compile_seconds=compile_seconds,
            execute_seconds=execute_seconds,
        )


def execute_mapping(
    expression: MappingExpression,
    source: Database,
    backend: str = AUTO,
    registry: "FunctionRegistry | None" = None,
    deadline: float | None = None,
    cancel: "CancelToken | None" = None,
    tracer: "Tracer | None" = None,
) -> ExecutionResult:
    """One-call mapping execution (see :class:`Executor`)."""
    executor = Executor(backend=backend, tracer=tracer)
    return executor.execute(
        expression,
        source,
        registry=registry,
        deadline=deadline,
        cancel=cancel,
    )
