"""Unit tests for SQL rendering (repro.relational.sql)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.errors import SqlRenderingError
from repro.relational import NULL, Database, Relation, tnf_decode
from repro.relational.sql import (
    create_table_sql,
    database_to_sql,
    insert_sql,
    quote_identifier,
    quote_literal,
    relation_to_sql,
    sql_type_of,
    tnf_construction_sql,
)


class TestQuoting:
    def test_identifier(self):
        assert quote_identifier("Flights") == '"Flights"'

    def test_identifier_embedded_quote(self):
        assert quote_identifier('a"b') == '"a""b"'

    def test_literal_string(self):
        assert quote_literal("ATL29") == "'ATL29'"

    def test_literal_string_escape(self):
        assert quote_literal("O'Hare") == "'O''Hare'"

    def test_literal_numbers(self):
        assert quote_literal(100) == "100"
        assert quote_literal(1.5) == "1.5"

    def test_literal_null(self):
        assert quote_literal(NULL) == "NULL"

    def test_literal_bool(self):
        """SQLite has no BOOLEAN storage class, so a bool has no literal."""
        with pytest.raises(SqlRenderingError):
            quote_literal(True)


class TestTypes:
    def test_integer(self):
        assert sql_type_of([1, 2]) == "INTEGER"

    def test_double(self):
        assert sql_type_of([1, 2.5]) == "DOUBLE PRECISION"

    def test_text(self):
        assert sql_type_of(["a", 1]) == "TEXT"

    def test_boolean(self):
        assert sql_type_of([True, False]) == "BOOLEAN"

    def test_all_null_defaults_to_text(self):
        assert sql_type_of([NULL]) == "TEXT"


class TestScripts:
    def test_create_table(self, db_a):
        sql = create_table_sql(db_a.relation("Flights"))
        assert sql.startswith('CREATE TABLE "Flights"')
        assert '"Carrier" TEXT' in sql
        assert '"ATL29" INTEGER' in sql

    def test_inserts_one_per_tuple(self, db_b):
        statements = insert_sql(db_b.relation("Prices"))
        assert len(statements) == 4
        assert all(s.startswith('INSERT INTO "Prices"') for s in statements)

    def test_relation_script_contains_both(self, db_a):
        script = relation_to_sql(db_a.relation("Flights"))
        assert "CREATE TABLE" in script and "INSERT INTO" in script

    def test_database_script_covers_all_relations(self, db_c):
        script = database_to_sql(db_c)
        assert '"AirEast"' in script and '"JetWest"' in script

    def test_null_rendered(self):
        rel = Relation("R", ("A", "B"), [(1, NULL)])
        script = relation_to_sql(rel)
        assert "NULL" in script


class TestTnfConstruction:
    def test_one_branch_per_attribute(self, db_b):
        sql = tnf_construction_sql(db_b.relation("Prices"))
        assert sql.count("UNION ALL") == 3  # 4 attributes
        assert sql.startswith('CREATE TABLE "TNF" AS')
        assert "'Route' AS ATT" in sql

    def test_custom_tnf_name(self, db_a):
        sql = tnf_construction_sql(db_a.relation("Flights"), tnf_table="Interop")
        assert '"Interop"' in sql

    def test_tnf_construction_sql_runs_on_sqlite(self, db_c):
        """The DDL and the TNF construction run on sqlite, and the TNF
        table decodes back to the relation's values as text."""
        air_east = db_c.relation("AirEast")
        conn = sqlite3.connect(":memory:")
        try:
            conn.executescript(
                relation_to_sql(air_east) + "\n" + tnf_construction_sql(air_east)
            )
            cursor = conn.execute('SELECT * FROM "TNF"')
            tnf = Relation("TNF", [d[0] for d in cursor.description], cursor)
        finally:
            conn.close()
        assert tnf.cardinality == 6  # 2 tuples x 3 attributes
        decoded = tnf_decode(tnf).relation("AirEast")
        # values pass through CAST AS TEXT, so compare textually
        assert decoded.column_values("Route") == {"ATL29", "ORD17"}
        assert decoded.column_values("TotalCost") == {"115", "125"}
