"""The front door for executing discovered mappings.

:func:`execute_mapping` is the one-call API: give it a mapping expression
and a source instance, and it compiles the pipeline to SQL, runs it on
stdlib sqlite, and hands back the resulting
:class:`~repro.relational.database.Database` together with the compiled
script and timings.  Under ``backend="auto"`` a mapping that sqlite
declines at compile (see :func:`~repro.fira.sqlcompile.check_step`) runs
through the in-memory algebra instead, the reference every executed
result is compared against.  Telemetry rides along as
``backend_compile`` / ``backend_execute`` trace events on an optional
:class:`~repro.obs.tracer.Tracer`.

Both legs honor the deadline/cancel contract of the search kernel:
a :class:`StatementLimiter` polls the
:class:`~repro.search.cancel.CancelToken` and the wall-clock deadline
between statements (sqlite) or operators (the algebra) and unwinds with
the standard :class:`~repro.errors.SearchCancelled` /
:class:`~repro.errors.SearchDeadlineExceeded`, so the CLI's exit-code-3
deadline path covers execution too.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING

from ..errors import (
    BackendUnsupportedError,
    SearchCancelled,
    SearchDeadlineExceeded,
    UnknownBackendError,
)
from ..fira.expression import MappingExpression
from ..fira.sqlcompile import SqlScript, compile_script
from ..obs.events import BACKEND_COMPILE, BACKEND_EXECUTE
from ..relational.database import Database
from ..relational.dialect import SQLITE
from .sqlite_backend import execute_script

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.tracer import Tracer
    from ..search.cancel import CancelToken
    from ..semantics.functions import FunctionRegistry

#: take sqlite, and the algebra for what sqlite declines
AUTO = "auto"
#: the engine an :class:`ExecutionResult` names when no SQL ran
ALGEBRA = "algebra"

#: the *backend* values :func:`execute_mapping` accepts
BACKEND_NAMES: tuple[str, ...] = (AUTO, SQLITE)


class StatementLimiter:
    """Per-call deadline/cancel poller shared by both execution legs.

    Construct once per call and call :meth:`check` before every statement
    or operator (and once more after the last): a set cancel token raises
    :class:`~repro.errors.SearchCancelled`, a deadline elapsed since
    construction raises :class:`~repro.errors.SearchDeadlineExceeded`,
    both carrying the number of steps completed so far as their progress
    counter.
    """

    __slots__ = ("deadline", "cancel", "started", "statements_done")

    def __init__(
        self,
        deadline: float | None = None,
        cancel: "CancelToken | None" = None,
    ) -> None:
        self.deadline = deadline
        self.cancel = cancel
        self.started = perf_counter()
        self.statements_done = 0

    def check(self) -> None:
        """Raise if cancelled or past deadline; otherwise return cheaply."""
        if self.cancel is not None and self.cancel.cancelled:
            raise SearchCancelled(self.statements_done)
        if self.deadline is not None:
            elapsed = perf_counter() - self.started
            if elapsed > self.deadline:
                raise SearchDeadlineExceeded(
                    self.deadline, elapsed, self.statements_done
                )

    def completed(self, count: int = 1) -> None:
        """Record *count* more steps finished."""
        self.statements_done += count


@dataclass(frozen=True)
class ExecutionResult:
    """What one mapping execution produced.

    Attributes:
        backend: ``"sqlite"``, or ``"algebra"`` when sqlite declined the
            mapping under ``auto`` and the in-memory algebra ran it.
        script: the compiled sqlite script; None when no SQL ran.
        database: the resulting instance, bit-comparable with the algebra.
        compile_seconds / execute_seconds: wall-clock timings; compile
            counts a compile that sqlite declined, execute the algebra's
            run when it took over.
        declined: why sqlite declined the mapping, None when it ran it.
    """

    backend: str
    script: SqlScript | None
    database: Database
    compile_seconds: float
    execute_seconds: float
    declined: str | None = None


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

    *backend* is ``"sqlite"`` or ``"auto"``.  sqlite declines a mapping
    at compile (booleans or ints beyond 64 bits in the source, a select on
    a boolean, names that differ only in case, a ``sqlite_`` table, a
    column called ``TRUE`` or ``FALSE``); under ``auto`` a decline hands the
    mapping to :meth:`~repro.fira.expression.MappingExpression.apply`.
    *tracer* receives ``backend_compile`` / ``backend_execute`` events.
    *deadline* counts from this call: compile spends it first, and the
    statements or operators run under what is left.

    Raises:
        UnknownBackendError: *backend* is neither name.
        BackendUnsupportedError: an explicit ``"sqlite"`` declines the
            mapping, with the reason.
    """
    if backend not in BACKEND_NAMES:
        raise UnknownBackendError(backend, BACKEND_NAMES)
    limiter = StatementLimiter(deadline, cancel)
    t0 = perf_counter()
    try:
        script = compile_script(expression, source, registry)
    except BackendUnsupportedError as exc:
        if backend != AUTO:
            raise
        return _run_on_algebra(
            expression, source, registry, limiter, tracer,
            perf_counter() - t0, exc.reason,
        )
    compile_seconds = perf_counter() - t0
    if tracer is not None:
        tracer.emit(
            BACKEND_COMPILE, backend=SQLITE, statements=script.statement_count
        )

    limiter.check()  # a compile that spent the deadline skips the load
    t1 = perf_counter()
    database = execute_script(script, source, limiter, registry)
    execute_seconds = perf_counter() - t1
    if tracer is not None:
        tracer.emit(
            BACKEND_EXECUTE,
            backend=SQLITE,
            statements=script.statement_count,
            dur=execute_seconds,
        )
    return ExecutionResult(
        backend=SQLITE,
        script=script,
        database=database,
        compile_seconds=compile_seconds,
        execute_seconds=execute_seconds,
    )


def _run_on_algebra(
    expression: MappingExpression,
    source: Database,
    registry: "FunctionRegistry | None",
    limiter: StatementLimiter,
    tracer: "Tracer | None",
    compile_seconds: float,
    declined: str,
) -> ExecutionResult:
    """Apply *expression* operator by operator, polling *limiter* between."""
    t0 = perf_counter()
    database = source
    for operator in expression:
        limiter.check()
        database = operator.apply(database, registry)
        limiter.completed()
    limiter.check()
    execute_seconds = perf_counter() - t0
    if tracer is not None:
        tracer.emit(
            BACKEND_EXECUTE, backend=ALGEBRA, statements=0, dur=execute_seconds
        )
    return ExecutionResult(
        backend=ALGEBRA,
        script=None,
        database=database,
        compile_seconds=compile_seconds,
        execute_seconds=execute_seconds,
        declined=declined,
    )
