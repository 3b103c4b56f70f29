"""Execute discovered mappings on stdlib sqlite.

TUPELO's output is an executable mapping expression; this package makes
"executable" literal.  :func:`execute_mapping` compiles the mapping to
SQL, runs it on an in-memory :mod:`sqlite3` database and hands the result
back as a plain :class:`~repro.relational.database.Database`, so it is
bit-comparable with the in-memory FIRA algebra.  That equivalence is the
compiler's correctness oracle (``tests/test_backend_equivalence.py``).

Under ``backend="auto"``, a mapping sqlite cannot run faithfully runs
through the algebra instead, and the result names ``"algebra"`` as its
engine; an explicit ``backend="sqlite"`` raises the decline.  See
``docs/execution.md`` for the semantics matrix.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".executor": (
            "AUTO", "BACKEND_NAMES", "ExecutionResult", "StatementLimiter",
            "execute_mapping",
        ),
    },
)
