"""Exception hierarchy for the TUPELO reproduction.

Every error raised by this package derives from :class:`TupeloError`, so
callers can catch a single base class.  Sub-hierarchies mirror the package
layout: relational-model errors, transformation-language errors, semantic
function errors, and search errors.
"""

from __future__ import annotations


class TupeloError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# Relational substrate
# ---------------------------------------------------------------------------


class RelationalError(TupeloError):
    """Base class for errors in the relational data model."""


class SchemaError(RelationalError):
    """A relation or database was constructed with an invalid schema.

    Examples: duplicate attribute names, empty relation name, tuples whose
    arity does not match the schema.
    """


class UnknownRelationError(RelationalError):
    """An operation referenced a relation name absent from the database."""

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        self.name = name
        self.available = tuple(available)
        message = f"unknown relation {name!r}"
        if available:
            message += f" (available: {', '.join(sorted(self.available))})"
        super().__init__(message)


class UnknownAttributeError(RelationalError):
    """An operation referenced an attribute absent from a relation."""

    def __init__(self, attribute: str, relation: str, available: tuple[str, ...] = ()) -> None:
        self.attribute = attribute
        self.relation = relation
        self.available = tuple(available)
        message = f"unknown attribute {attribute!r} in relation {relation!r}"
        if available:
            message += f" (available: {', '.join(sorted(self.available))})"
        super().__init__(message)


class TNFError(RelationalError):
    """A Tuple Normal Form table was malformed or could not be decoded."""


class SqlRenderingError(RelationalError):
    """A value or name has no faithful rendering in SQLite's SQL.

    Raised by :mod:`repro.relational.dialect` for empty identifiers, NUL
    bytes, non-finite floats, and boolean literals (SQLite has no BOOLEAN
    storage class) — cases where emitting SQL anyway would either fail to
    parse or silently change meaning.  Compile declines a mapping that
    would meet one (``BackendUnsupportedError``), so this reaches only
    callers of the rendering helpers themselves.
    """


# ---------------------------------------------------------------------------
# Transformation language L
# ---------------------------------------------------------------------------


class TransformError(TupeloError):
    """Base class for errors applying operators of the language L."""


class OperatorApplicationError(TransformError):
    """An operator could not be applied to the given database."""


class NameCollisionError(TransformError):
    """An operator would create a relation or attribute that already exists."""


class ExpressionParseError(TransformError):
    """A textual mapping expression could not be parsed."""

    def __init__(self, message: str, text: str = "", position: int | None = None) -> None:
        self.text = text
        self.position = position
        if position is not None:
            message = f"{message} at position {position}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Complex semantic functions
# ---------------------------------------------------------------------------


class SemanticError(TupeloError):
    """Base class for errors involving complex semantic functions."""


class UnknownFunctionError(SemanticError):
    """A mapping expression referenced a function missing from the registry."""

    def __init__(self, name: str) -> None:
        self.name = name
        super().__init__(f"unknown semantic function {name!r}")


class SignatureError(SemanticError):
    """A semantic function was applied to arguments of the wrong arity/type."""


class CorrespondenceError(SemanticError):
    """A complex correspondence declaration was malformed."""


# ---------------------------------------------------------------------------
# Observability
# ---------------------------------------------------------------------------


class ObservabilityError(TupeloError):
    """Base class for errors in the telemetry layer (:mod:`repro.obs`)."""


class TraceFormatError(ObservabilityError):
    """A persisted trace was malformed or stamped an unsupported schema.

    Raised by :func:`repro.obs.load_trace` and the event validators; old
    traces written under a different :data:`repro.obs.SCHEMA_VERSION` fail
    loudly with this instead of silently mis-replaying.
    """


class TraceWriteError(ObservabilityError):
    """A sink failed to persist an event record (disk full, fd revoked).

    :class:`repro.obs.sinks.JsonlSink` wraps the underlying ``OSError`` in
    this type after closing its file handle, so a failed sink is never left
    half-open.  The tracer catches it, degrades to a
    :class:`~repro.obs.sinks.NullSink`, and lets the search finish — trace
    loss is a warning (``resilience.trace_write_errors``), not an abort.
    """

    def __init__(self, path: str, cause: str) -> None:
        self.path = str(path)
        self.cause = cause
        super().__init__(f"cannot write trace to {path}: {cause}")


# ---------------------------------------------------------------------------
# Execution backends
# ---------------------------------------------------------------------------


class BackendError(TupeloError):
    """Base class for errors in the SQL execution backends (:mod:`repro.backends`)."""


class UnknownBackendError(BackendError):
    """A backend name was not found in the registry."""

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        self.name = name
        self.available = tuple(available)
        message = f"unknown backend {name!r}"
        if available:
            message += f" (known: {', '.join(sorted(self.available))})"
        super().__init__(message)


class BackendUnsupportedError(BackendError):
    """A backend cannot faithfully execute this expression/instance pair.

    Example: SQLite has no BOOLEAN storage class, so bool-carrying
    instances cannot round-trip bit-identically through it.  Compile
    raises it (:func:`~repro.fira.sqlcompile.check_step`); the ``auto``
    front door then runs the mapping on the in-memory algebra, and an
    explicit ``"sqlite"`` request fails with the reason.
    """

    def __init__(self, name: str, reason: str) -> None:
        self.backend = name
        self.reason = reason
        super().__init__(f"backend {name!r} cannot execute this mapping: {reason}")


class BackendExecutionError(BackendError):
    """The engine rejected or failed a compiled statement mid-script."""

    def __init__(self, name: str, statement: str, cause: str) -> None:
        self.backend = name
        self.statement = statement
        self.cause = cause
        super().__init__(
            f"backend {name!r} failed executing {statement!r}: {cause}"
        )


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


class SearchError(TupeloError):
    """Base class for errors raised by the search engine."""


class UnknownHeuristicError(SearchError):
    """A heuristic name was not found in the registry."""

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        self.name = name
        self.available = tuple(available)
        message = f"unknown heuristic {name!r}"
        if available:
            message += f" (available: {', '.join(sorted(self.available))})"
        super().__init__(message)


class UnknownAlgorithmError(SearchError):
    """A search algorithm name was not found in the registry."""

    def __init__(self, name: str, available: tuple[str, ...] = ()) -> None:
        self.name = name
        self.available = tuple(available)
        message = f"unknown search algorithm {name!r}"
        if available:
            message += f" (available: {', '.join(sorted(self.available))})"
        super().__init__(message)


class SearchBudgetExceeded(SearchError):
    """The search examined more states than its configured budget allows."""

    def __init__(self, budget: int, states_examined: int) -> None:
        self.budget = budget
        self.states_examined = states_examined
        super().__init__(
            f"search budget of {budget} states exceeded ({states_examined} examined)"
        )


class SearchDeadlineExceeded(SearchError):
    """The search ran past its wall-clock deadline (cooperatively detected).

    Unlike :class:`SearchBudgetExceeded` (the paper's state-count cut), the
    deadline bounds *time*: the kernel checks ``perf_counter`` periodically
    and aborts with partial :class:`~repro.search.stats.SearchStats` intact.
    """

    def __init__(
        self, deadline: float, elapsed: float, states_examined: int
    ) -> None:
        self.deadline = deadline
        self.elapsed = elapsed
        self.states_examined = states_examined
        super().__init__(
            f"search deadline of {deadline:g}s exceeded after {elapsed:.3f}s "
            f"({states_examined} states examined)"
        )


class SearchCancelled(SearchError):
    """The search observed its :class:`~repro.search.cancel.CancelToken` set.

    Cooperative: raised from the kernel's periodic limit checks, so the
    stack unwinds cleanly and partial statistics survive.
    """

    def __init__(self, states_examined: int = 0) -> None:
        self.states_examined = states_examined
        super().__init__(
            f"search cancelled after {states_examined} states examined"
        )


class MappingNotFound(SearchError):
    """The search space was exhausted without reaching the target instance."""
