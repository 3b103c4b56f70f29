"""Pluggable SQL execution backends for discovered mappings.

TUPELO's output is an executable mapping expression; this package makes
"executable" literal across engines.  A :class:`~repro.backends.base
.SqlBackend` pairs a rendering dialect with an engine that can load a
source instance, run the compiled script, and hand the result back as a
plain :class:`~repro.relational.database.Database` — so every engine's
output is bit-comparable with the in-memory FIRA algebra and with every
other engine.  Cross-backend equivalence is the compiler's correctness
oracle (``tests/test_backend_equivalence.py``).

Shipped backends, both always available:

======== =================================
name     engine
======== =================================
minisql  in-process reference interpreter
sqlite   stdlib :mod:`sqlite3`
======== =================================

:func:`execute_mapping` dispatches between them (``backend="auto"`` takes
sqlite when sqlite can run the mapping faithfully, minisql otherwise); see
``docs/execution.md`` for the semantics matrix and how to add a backend.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("SqlBackend", "StatementLimiter"),
        ".executor": (
            "AUTO", "ExecutionResult", "backend_names", "execute_mapping",
            "get_backend",
        ),
        ".minisql_backend": ("MiniSqlBackend",),
        ".sqlite_backend": ("SqliteBackend",),
    },
)
