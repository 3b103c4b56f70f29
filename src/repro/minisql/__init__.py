"""Mini-SQL: parse and execute the SQL the TUPELO compiler emits.

This closes the interoperability loop the paper sketches in §2.2: mapping
expressions compile to SQL (:mod:`repro.fira.sqlcompile`) and this package
executes those scripts against in-memory relations, so the compilation can
be verified end-to-end — ``run_script(compile_expression(e, db), db)``
must contain ``e.apply(db)``.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".engine": ("MiniSqlEngine", "SqlExecutionError", "run_script"),
        ".lexer": ("SqlSyntaxError", "tokenize"),
        ".parser": ("parse_script", "parse_select"),
    },
)
