"""Unit tests for SQL compilation of pipelines (repro.fira.sqlcompile)."""

from __future__ import annotations

from repro.backends import execute_mapping
from repro.fira import (
    ApplyFunction,
    CartesianProduct,
    Demote,
    Dereference,
    DropAttribute,
    MappingExpression,
    Merge,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
    Select,
    compile_expression,
    compile_operator,
    compile_script,
)
from repro.relational.dialect import DIALECTS
from repro.semantics import builtin_registry
from repro.workloads import b_to_a_expression, flights_b


class TestOperatorCompilation:
    def test_rename_attribute(self, db_b):
        sql = compile_operator(
            RenameAttribute("Prices", "AgentFee", "Fee"), db_b
        )
        assert sql == [
            'ALTER TABLE "Prices" RENAME COLUMN "AgentFee" TO "Fee";'
        ]

    def test_rename_relation(self, db_b):
        sql = compile_operator(RenameRelation("Prices", "Flights"), db_b)
        assert 'RENAME TO "Flights"' in sql[0]

    def test_drop(self, db_b):
        sql = compile_operator(DropAttribute("Prices", "Cost"), db_b)
        assert 'DROP COLUMN "Cost"' in sql[0]

    def test_select(self, db_b):
        sql = compile_operator(Select("Prices", "Carrier", "AirEast"), db_b)
        assert "DELETE FROM" in sql[0] and "'AirEast'" in sql[0]

    def test_promote_materializes_data_names(self, db_b):
        sql = "\n".join(
            compile_operator(Promote("Prices", "Route", "Cost"), db_b)
        )
        assert '"ATL29"' in sql and '"ORD17"' in sql
        assert "CASE WHEN" in sql
        assert "instance-directed" in sql

    def test_demote_emits_values_table(self, db_b):
        sql = "\n".join(compile_operator(Demote("Prices"), db_b))
        assert "CROSS JOIN" in sql and "(VALUES" in sql
        assert "'Carrier'" in sql

    def test_dereference_emits_case_per_attribute(self, db_b):
        sql = "\n".join(
            compile_operator(Dereference("Prices", "Route", "V"), db_b)
        )
        assert sql.count("WHEN") == 4  # one per attribute

    def test_partition_creates_table_per_value(self, db_b):
        sql = compile_operator(Partition("Prices", "Carrier"), db_b)
        text = "\n".join(sql)
        assert 'CREATE TABLE "AirEast"' in text
        assert 'CREATE TABLE "JetWest"' in text
        assert 'DROP TABLE "Prices"' in text

    def test_merge_group_by_max(self, db_b):
        sql = "\n".join(compile_operator(Merge("Prices", "Carrier"), db_b))
        assert 'GROUP BY "Carrier"' in sql and "MAX(" in sql

    def test_product(self, db_c):
        sql = compile_operator(CartesianProduct("AirEast", "JetWest"), db_c)
        assert "CROSS JOIN" in sql[0]
        assert '"AirEast.Route"' in sql[0]

    def test_apply_emits_udf_call(self, db_b):
        sql = "\n".join(
            compile_operator(
                ApplyFunction("Prices", "add", ("Cost", "AgentFee"), "T"), db_b
            )
        )
        assert 'add("Cost", "AgentFee") AS "T"' in sql
        assert "UDF" in sql


class TestExpressionCompilation:
    def test_full_example2_script(self, db_b):
        script = compile_expression(b_to_a_expression(), db_b)
        assert script.count("-- step") == 6
        assert 'RENAME TO "Flights"' in script

    def test_steps_follow_instance_evolution(self, db_b):
        """The drop of 'Route' compiles after promote created the route
        columns, proving the compiler tracks the evolving instance."""
        script = compile_expression(b_to_a_expression(), db_b)
        assert script.index('"ATL29"') < script.index('DROP COLUMN "Route"')

    def test_lambda_pipeline(self, db_b):
        from repro.workloads import b_to_c_expression

        script = compile_expression(
            b_to_c_expression(), db_b, builtin_registry()
        )
        assert 'CREATE TABLE "AirEast"' in script


def _statements(expression, db, dialect):
    return compile_script(
        MappingExpression(expression), db, builtin_registry(), DIALECTS[dialect]
    ).statements


def _runs_like_the_algebra(expression, db):
    expression = MappingExpression(expression)
    expected = expression.apply(db, builtin_registry())
    for backend in ("minisql", "sqlite"):
        result = execute_mapping(
            expression, db, backend=backend, registry=builtin_registry()
        )
        assert result.database == expected, backend


class TestRowWiseRuns:
    """Consecutive row-wise steps on one relation copy the table once."""

    def test_example2_copies_once_for_promote_and_drops(self, db_b):
        statements = _statements(b_to_a_expression(), db_b, "sqlite")
        # promote + both drops, merge, two renames (14 with a copy per step)
        assert len(statements) == 3 + 3 + 1 + 1
        # the dropped columns are left out; the promote still reads them
        assert statements[0].startswith(
            'CREATE TABLE "Prices__tupelo_tmp" AS SELECT DISTINCT '
            '"AgentFee", "Carrier", CASE WHEN "Route" = \'ATL29\' THEN "Cost" END'
        )

    def test_lambdas_and_renames_fuse(self, db_b):
        steps = [
            ApplyFunction("Prices", "add", ("Cost", "AgentFee"), "Total"),
            RenameAttribute("Prices", "Cost", "Base"),
            ApplyFunction("Prices", "upper", ("Carrier",), "Airline"),
            RenameAttribute("Prices", "Total", "TotalCost"),
        ]
        for dialect in ("minisql", "sqlite"):
            (create, drop, rename) = _statements(steps, db_b, dialect)
            assert '"Cost" AS "Base"' in create
            assert 'AS "TotalCost"' in create and 'AS "Total"' not in create
            assert drop == 'DROP TABLE "Prices";'
            assert rename.endswith('RENAME TO "Prices";')
        _runs_like_the_algebra(steps, db_b)

    def test_reading_a_computed_column_breaks_the_run(self, db_b):
        steps = [
            ApplyFunction("Prices", "add", ("Cost", "AgentFee"), "Total"),
            ApplyFunction("Prices", "add", ("Total", "Cost"), "Twice"),
        ]
        statements = _statements(steps, db_b, "sqlite")
        assert len(statements) == 6
        assert '"add"("Total", "Cost")' in statements[3]
        _runs_like_the_algebra(steps, db_b)

    def test_dereference_after_a_lambda_breaks_the_run(self, db_b):
        steps = [
            ApplyFunction("Prices", "upper", ("Carrier",), "Airline"),
            Dereference("Prices", "Route", "V"),
        ]
        assert len(_statements(steps, db_b, "sqlite")) == 6
        _runs_like_the_algebra(steps, db_b)

    def test_dropping_a_computed_column_breaks_the_run(self, db_b):
        steps = [
            ApplyFunction("Prices", "upper", ("Carrier",), "Airline"),
            DropAttribute("Prices", "Carrier"),
            DropAttribute("Prices", "Airline"),
        ]
        assert len(_statements(steps, db_b, "sqlite")) == 6
        _runs_like_the_algebra(steps, db_b)

    def test_renames_alone_keep_alter_table(self, db_b):
        steps = [
            RenameAttribute("Prices", "Cost", "Base"),
            RenameAttribute("Prices", "AgentFee", "Fee"),
        ]
        for dialect in ("minisql", "sqlite"):
            statements = _statements(steps, db_b, dialect)
            assert statements == (
                'ALTER TABLE "Prices" RENAME COLUMN "Cost" TO "Base";',
                'ALTER TABLE "Prices" RENAME COLUMN "AgentFee" TO "Fee";',
            )

    def test_a_run_ends_at_another_relation(self, db_c):
        steps = [
            ApplyFunction("AirEast", "upper", ("Route",), "R"),
            ApplyFunction("JetWest", "upper", ("Route",), "R"),
        ]
        assert len(_statements(steps, db_c, "sqlite")) == 6
        _runs_like_the_algebra(steps, db_c)
