"""SQLite's SQL rules: quoting, rejections, and its spelling of casts,
constant tables and UDF calls."""

from __future__ import annotations

import pytest

from repro.errors import SqlRenderingError
from repro.relational import NULL, sql
from repro.relational.dialect import (
    cast_to_text,
    function_call,
    quote_identifier,
    quote_literal,
    values_table,
)


class TestIdentifierQuoting:
    def test_plain_identifier(self):
        assert quote_identifier("Carrier") == '"Carrier"'

    def test_embedded_double_quote_is_doubled(self):
        assert quote_identifier('a"b') == '"a""b"'

    def test_non_ascii_identifier_passes_through(self):
        assert quote_identifier("Straße") == '"Straße"'

    def test_empty_identifier_rejected(self):
        with pytest.raises(SqlRenderingError):
            quote_identifier("")

    def test_nul_byte_rejected(self):
        with pytest.raises(SqlRenderingError):
            quote_identifier("a\x00b")

    def test_non_string_rejected(self):
        with pytest.raises(SqlRenderingError):
            quote_identifier(None)


class TestLiteralQuoting:
    def test_string_single_quotes_doubled(self):
        assert quote_literal("O'Hare") == "'O''Hare'"

    def test_null(self):
        assert quote_literal(NULL) == "NULL"

    def test_numbers(self):
        assert quote_literal(42) == "42"
        assert quote_literal(1.5) == "1.5"

    def test_nul_byte_in_string_rejected(self):
        with pytest.raises(SqlRenderingError):
            quote_literal("a\x00b")

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_rejected(self, bad):
        with pytest.raises(SqlRenderingError):
            quote_literal(bad)


class TestModuleLevelHelpers:
    """``repro.relational.sql`` quotes by the same rules."""

    def test_quote_identifier_rejects_empty(self):
        with pytest.raises(SqlRenderingError):
            sql.quote_identifier("")

    def test_quote_literal_booleans(self):
        """SQLite has no BOOLEAN storage class: True would read back as 1."""
        for value in (True, False):
            with pytest.raises(SqlRenderingError):
                sql.quote_literal(value)


class TestDialectBehaviors:
    def test_sqlite_cast_guards_integral_reals(self):
        cast = cast_to_text('"x"')
        assert "typeof" in cast and "CAST" in cast

    def test_sqlite_values_table_uses_union_all(self):
        rendered = values_table([("T", "a"), ("T", "b")], "m", ("REL", "ATT"))
        assert rendered == (
            "(SELECT 'T' AS \"REL\", 'a' AS \"ATT\" UNION ALL SELECT 'T', 'b') AS m"
        )

    def test_sqlite_function_call_quotes_keyword_names(self):
        assert function_call("add", ['"A"', '"B"']) == '"add"("A", "B")'
