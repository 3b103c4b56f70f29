"""Compiled pipelines: a FIRA mapping compiled to SQL and run on sqlite
replays the in-memory algebra."""

from __future__ import annotations

from repro.backends import execute_mapping
from repro.fira import (
    CartesianProduct,
    DropAttribute,
    MappingExpression,
    Merge,
    Promote,
)
from repro.workloads import (
    b_to_a_expression,
    b_to_c_expression,
    flights_registry,
)


def run_on_sqlite(expression, source, registry=None):
    return execute_mapping(
        expression, source, backend="sqlite", registry=registry
    ).database


class TestCompiledPipelines:
    """The headline property: the compiled script, executed by sqlite,
    replays the algebra exactly."""

    def test_example2_via_sql(self, db_a, db_b):
        out = run_on_sqlite(b_to_a_expression(), db_b)
        assert out.contains(db_a)

    def test_b_to_c_via_sql_with_udf(self, db_b, db_c):
        out = run_on_sqlite(b_to_c_expression(), db_b, flights_registry())
        assert out.contains(db_c)

    def test_merge_compiles_on_its_intended_input(self, db_b):
        """The GROUP BY/MAX rendering of µ assumes at most one non-NULL
        value per column per group — exactly the post-promote shape
        (documented caveat in the compiler).  On that shape SQL and
        algebra agree."""
        prepared = db_b
        for op in (
            Promote("Prices", "Route", "Cost"),
            DropAttribute("Prices", "Route"),
            DropAttribute("Prices", "Cost"),
        ):
            prepared = op.apply(prepared)
        merge = Merge("Prices", "Carrier")
        expected = merge.apply(prepared)
        assert run_on_sqlite(MappingExpression([merge]), prepared) == expected

    def test_product_compiles_and_runs(self, db_c):
        op = CartesianProduct("AirEast", "JetWest")
        expected = op.apply(db_c)
        assert run_on_sqlite(MappingExpression([op]), db_c) == expected
