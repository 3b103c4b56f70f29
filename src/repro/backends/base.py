"""The :class:`SqlBackend` ABC: pluggable engines for discovered mappings.

A backend owns one :class:`~repro.relational.dialect.SqlDialect` and knows
how to (1) decide whether it can *faithfully* execute a given mapping over
a given instance, (2) compile the mapping to a :class:`~repro.fira
.sqlcompile.SqlScript` in its dialect, and (3) execute that script against
the source instance, returning the result as an ordinary
:class:`~repro.relational.database.Database` value — so every backend's
output is directly comparable (``==`` is bit-identity) with the in-memory
FIRA algebra and with every other backend.  That cross-engine equivalence
is the correctness oracle for the FIRA → SQL compiler
(``tests/test_backend_equivalence.py``).

Backends honor the deadline/cancel contract of the search kernel (PR 5):
``execute`` polls its :class:`~repro.search.cancel.CancelToken` and
wall-clock deadline *between statements* and unwinds with the standard
:class:`~repro.errors.SearchCancelled` /
:class:`~repro.errors.SearchDeadlineExceeded`, so the CLI's exit-code-3
deadline path covers engine execution too.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from time import perf_counter
from typing import TYPE_CHECKING

from ..errors import SearchCancelled, SearchDeadlineExceeded
from ..fira.expression import MappingExpression
from ..fira.sqlcompile import SqlScript, compile_script
from ..relational.database import Database
from ..relational.dialect import SqlDialect

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..search.cancel import CancelToken
    from ..semantics.functions import FunctionRegistry


class StatementLimiter:
    """Per-script deadline/cancel poller shared by all backends.

    Construct once at the top of ``execute`` and call :meth:`check` before
    every statement (and once more after the last): a set cancel token
    raises :class:`~repro.errors.SearchCancelled`, an elapsed deadline
    raises :class:`~repro.errors.SearchDeadlineExceeded`, both carrying the
    number of statements completed so far as their progress counter.
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
        """Record *count* more statements finished."""
        self.statements_done += count


class SqlBackend(ABC):
    """One pluggable SQL execution engine for discovered mappings.

    Subclasses set :attr:`name` and :attr:`dialect` and implement
    :meth:`execute`; :meth:`compile` and :meth:`why_unsupported` have
    shared defaults (compile via :func:`~repro.fira.sqlcompile
    .compile_script` in the backend's dialect; decline nothing).
    """

    #: registry key, also the CLI ``--backend`` spelling
    name: str = "sql-backend"
    #: rendering rules for this engine
    dialect: SqlDialect

    def why_unsupported(
        self,
        expression: MappingExpression,
        source: Database | None = None,
    ) -> str | None:
        """None when this backend can faithfully execute the mapping,
        else the reason it cannot (used verbatim in errors and logs).

        "Faithfully" means the executed result is bit-identical with the
        in-memory algebra — backends decline instances their engine cannot
        round-trip (e.g. SQLite and booleans) rather than silently
        diverging.
        """
        return None

    def compile(
        self,
        expression: MappingExpression,
        source: Database,
        registry: "FunctionRegistry | None" = None,
    ) -> SqlScript:
        """Compile *expression* over *source* into this backend's dialect."""
        return compile_script(expression, source, registry, self.dialect)

    @abstractmethod
    def execute(
        self,
        script: SqlScript,
        source: Database,
        registry: "FunctionRegistry | None" = None,
        deadline: float | None = None,
        cancel: "CancelToken | None" = None,
    ) -> Database:
        """Load *source*, run *script* statement by statement, read back.

        Returns the resulting catalogue as a :class:`Database`
        bit-identical (for supported inputs) with replaying the mapping
        through the in-memory algebra.  Polls *cancel* and *deadline*
        between statements (see :class:`StatementLimiter`).
        """
