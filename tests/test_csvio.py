"""Unit tests for CSV I/O (repro.relational.csvio)."""

from __future__ import annotations

import pytest

from repro.errors import SchemaError
from repro.relational import (
    NULL,
    Database,
    Relation,
)
from repro.relational.csvio import (
    database_from_mapping,
    load_database_dir,
    load_relation,
    parse_value,
    relation_from_csv,
    relation_to_csv,
    save_database,
    save_relation,
)


class TestParseValue:
    def test_empty_is_null(self):
        assert parse_value("") is NULL

    def test_literal_null(self):
        assert parse_value("NULL") is NULL

    def test_int(self):
        assert parse_value("42") == 42

    def test_negative_int(self):
        assert parse_value("-3") == -3

    def test_float(self):
        assert parse_value("1.5") == 1.5

    def test_bool(self):
        assert parse_value("true") is True
        assert parse_value("False") is False

    def test_string_fallback(self):
        assert parse_value("ATL29") == "ATL29"

    def test_numeric_looking_string_with_spaces(self):
        assert parse_value("1 2") == "1 2"

    @pytest.mark.parametrize("text", ["Nan", "NaN", "nan", "-nan", "+NAN"])
    def test_nan_spellings_stay_strings(self, text):
        assert parse_value(text) == text

    def test_infinity_is_a_float(self):
        assert parse_value("inf") == float("inf")


class TestRelationCsv:
    def test_parse_header_and_rows(self):
        r = relation_from_csv("R", "A,B\n1,x\n2,y\n")
        assert r.attribute_set == {"A", "B"}
        assert (1, "x") in r.rows

    def test_empty_text_rejected(self):
        with pytest.raises(SchemaError):
            relation_from_csv("R", "")

    def test_ragged_row_rejected(self):
        with pytest.raises(SchemaError):
            relation_from_csv("R", "A,B\n1\n")

    def test_roundtrip(self, db_b):
        rel = db_b.relation("Prices")
        again = relation_from_csv("Prices", relation_to_csv(rel))
        assert again == rel

    def test_roundtrip_null(self):
        rel = Relation("R", ("A", "B"), [(1, NULL)])
        again = relation_from_csv("R", relation_to_csv(rel))
        assert again == rel

    def test_quoted_commas(self):
        r = relation_from_csv("R", 'A,B\n"x,y",2\n')
        assert ("x,y", 2) in r.rows


class TestFiles:
    def test_save_and_load_relation(self, tmp_path, db_a):
        rel = db_a.relation("Flights")
        path = tmp_path / "Flights.csv"
        save_relation(rel, path)
        assert load_relation(path) == rel

    def test_load_relation_name_from_stem(self, tmp_path):
        path = tmp_path / "MyTable.csv"
        path.write_text("A\n1\n")
        assert load_relation(path).name == "MyTable"

    def test_two_loads_of_a_nan_cell_compare_equal(self, tmp_path):
        path = tmp_path / "People.csv"
        path.write_text("First,Last\nNan,Smith\nnan,NaN\n")
        first, second = load_relation(path), load_relation(path)
        assert first == second
        assert first.rows == {("Nan", "Smith"), ("nan", "NaN")}

    def test_save_and_load_database(self, tmp_path, db_c):
        save_database(db_c, tmp_path)
        assert load_database_dir(tmp_path) == db_c

    def test_save_database_returns_paths(self, tmp_path, db_c):
        paths = save_database(db_c, tmp_path)
        assert sorted(p.name for p in paths) == ["AirEast.csv", "JetWest.csv"]

    def test_load_missing_directory_raises(self, tmp_path):
        missing = tmp_path / "absent"
        with pytest.raises(SchemaError, match="absent is not a directory"):
            load_database_dir(missing)

    def test_load_directory_without_csv_raises(self, tmp_path):
        (tmp_path / "notes.txt").write_text("A\n1\n")
        with pytest.raises(SchemaError, match=r"no file matching '\*\.csv'"):
            load_database_dir(tmp_path)


class TestDatabaseFromMapping:
    def test_builds_relations(self):
        db = database_from_mapping({"R": "A\n1\n", "S": "B\nx\n"})
        assert db.relation_names == ("R", "S")
        assert db.relation("R").rows == {(1,)}

    def test_equivalent_to_constructor(self, db_a):
        rel = db_a.relation("Flights")
        db = database_from_mapping({"Flights": relation_to_csv(rel)})
        assert db == Database.single(rel)
