"""Pluggable SQL execution backends for discovered mappings.

TUPELO's output is an executable mapping expression; this package makes
"executable" literal across engines.  A :class:`~repro.backends.base
.SqlBackend` pairs a rendering dialect with an engine that can load a
source instance, run the compiled script, and hand the result back as a
plain :class:`~repro.relational.database.Database` — so every engine's
output is bit-comparable with the in-memory FIRA algebra and with every
other engine.  Cross-backend equivalence is the compiler's correctness
oracle (``tests/test_backend_equivalence.py``).

Shipped backends:

======== ================================= ==============================
name     engine                            availability
======== ================================= ==============================
minisql  in-process reference interpreter  always (zero dependencies)
sqlite   stdlib :mod:`sqlite3`             always
duckdb   DuckDB                            only when ``duckdb`` installed
======== ================================= ==============================

:func:`execute_mapping` / :class:`Executor` dispatch between them
(``backend="auto"`` prefers the fastest faithful engine available); see
``docs/execution.md`` for the semantics matrix and how to add a backend.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("SqlBackend", "StatementLimiter"),
        ".duckdb_backend": ("DuckDbBackend",),
        ".executor": (
            "AUTO", "AUTO_ORDER", "ExecutionResult", "Executor",
            "available_backends", "backend_names", "execute_mapping",
            "get_backend",
        ),
        ".minisql_backend": ("MiniSqlBackend",),
        ".sqlite_backend": ("SqliteBackend",),
    },
)
