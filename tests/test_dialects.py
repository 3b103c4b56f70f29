"""SQL dialect rendering: shared quoting rules and per-engine divergences."""

from __future__ import annotations

import pytest

from repro.errors import SqlRenderingError
from repro.relational import NULL
from repro.relational.dialect import (
    CANONICAL_DIALECT,
    CanonicalDialect,
    SqlDialect,
    SqliteDialect,
)
from repro.relational.sql import quote_identifier, quote_literal

ALL_DIALECTS = [CanonicalDialect(), SqliteDialect()]


def _ids(dialects):
    return [d.name for d in dialects]


class TestIdentifierQuoting:
    """All backends quote identifiers identically (satellite: shared rules)."""

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_plain_identifier(self, dialect):
        assert dialect.quote_identifier("Carrier") == '"Carrier"'

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_embedded_double_quote_is_doubled(self, dialect):
        assert dialect.quote_identifier('a"b') == '"a""b"'

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_non_ascii_identifier_passes_through(self, dialect):
        assert dialect.quote_identifier("Straße") == '"Straße"'

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_empty_identifier_rejected(self, dialect):
        with pytest.raises(SqlRenderingError):
            dialect.quote_identifier("")

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_nul_byte_rejected(self, dialect):
        with pytest.raises(SqlRenderingError):
            dialect.quote_identifier("a\x00b")

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_non_string_rejected(self, dialect):
        with pytest.raises(SqlRenderingError):
            dialect.quote_identifier(None)

    def test_identifier_quoting_identical_across_dialects(self):
        specimens = ["x", 'say "hi"', "füße", "a'b", "  spaced  "]
        for name in specimens:
            rendered = {d.quote_identifier(name) for d in ALL_DIALECTS}
            assert len(rendered) == 1, name


class TestLiteralQuoting:
    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_string_single_quotes_doubled(self, dialect):
        assert dialect.quote_literal("O'Hare") == "'O''Hare'"

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_null(self, dialect):
        assert dialect.quote_literal(NULL) == "NULL"

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_numbers(self, dialect):
        assert dialect.quote_literal(42) == "42"
        assert dialect.quote_literal(1.5) == "1.5"

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    def test_nul_byte_in_string_rejected(self, dialect):
        with pytest.raises(SqlRenderingError):
            dialect.quote_literal("a\x00b")

    @pytest.mark.parametrize("dialect", ALL_DIALECTS, ids=_ids(ALL_DIALECTS))
    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_floats_rejected(self, dialect, bad):
        with pytest.raises(SqlRenderingError):
            dialect.quote_literal(bad)

    def test_booleans_per_engine(self):
        assert CanonicalDialect().quote_literal(True) == "TRUE"
        assert CanonicalDialect().quote_literal(False) == "FALSE"
        with pytest.raises(SqlRenderingError):
            SqliteDialect().quote_literal(True)


class TestModuleLevelHelpers:
    """The historical quote_* functions keep their canonical behavior."""

    def test_quote_identifier_matches_canonical(self):
        assert quote_identifier("a") == CANONICAL_DIALECT.quote_identifier("a")

    def test_quote_literal_booleans(self):
        assert quote_literal(True) == "TRUE"
        assert quote_literal(False) == "FALSE"

    def test_quote_identifier_rejects_empty(self):
        with pytest.raises(SqlRenderingError):
            quote_identifier("")


class TestDialectBehaviors:
    def test_set_vs_bag_semantics(self):
        assert CanonicalDialect().select_modifier() == ""
        assert SqliteDialect().select_modifier() == "DISTINCT "

    def test_drop_column_in_place(self):
        assert CanonicalDialect().drop_column_in_place()
        assert not SqliteDialect().drop_column_in_place()

    def test_sqlite_cast_guards_integral_reals(self):
        cast = SqliteDialect().cast_to_text('"x"')
        assert "typeof" in cast and "CAST" in cast

    def test_canonical_name(self):
        assert CANONICAL_DIALECT.name == "canonical"

    def test_canonical_cast_is_plain(self):
        assert CANONICAL_DIALECT.cast_to_text('"x"') == 'CAST("x" AS TEXT)'

    def test_sqlite_values_table_uses_union_all(self):
        rendered = SqliteDialect().values_table(
            [("T", "a"), ("T", "b")], "__meta", ("REL", "ATT")
        )
        assert "UNION ALL" in rendered and "VALUES" not in rendered

    def test_ansi_values_table(self):
        rendered = SqlDialect().values_table(
            [("T", "a")], "__meta", ("REL", "ATT")
        )
        assert rendered == "(VALUES ('T', 'a')) AS __meta(\"REL\", \"ATT\")"

    def test_sqlite_function_call_quotes_keyword_names(self):
        call = SqliteDialect().function_call("add", ['"A"', '"B"'])
        assert call == '"add"("A", "B")'
        assert CanonicalDialect().function_call("add", ['"A"']) == 'add("A")'
