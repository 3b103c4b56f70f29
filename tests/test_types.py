"""Unit tests for repro.relational.types."""

from __future__ import annotations

import pickle

import pytest

from repro.relational.types import (
    NULL,
    NullType,
    check_value,
    is_null,
    value_sort_key,
    value_to_text,
)


class TestNull:
    def test_singleton(self):
        assert NullType() is NULL

    def test_repr(self):
        assert repr(NULL) == "NULL"

    def test_falsy(self):
        assert not NULL

    def test_equality_only_with_null(self):
        assert NULL == NullType()
        assert NULL != 0
        assert NULL != ""
        assert NULL != "NULL"

    def test_hash_stable(self):
        assert hash(NULL) == hash(NullType())

    def test_pickle_preserves_singleton(self):
        assert pickle.loads(pickle.dumps(NULL)) is NULL

    def test_is_null(self):
        assert is_null(NULL)
        assert not is_null(None)
        assert not is_null(0)
        assert not is_null("")


class TestCheckValue:
    def test_passthrough_atoms(self):
        for value in ("a", 1, 1.5, True, NULL):
            assert check_value(value) is value or check_value(value) == value

    def test_none_coerces_to_null(self):
        assert check_value(None) is NULL

    def test_rejects_containers(self):
        with pytest.raises(TypeError):
            check_value([1, 2])
        with pytest.raises(TypeError):
            check_value({"a": 1})
        with pytest.raises(TypeError):
            check_value((1,))

    def test_rejects_object(self):
        with pytest.raises(TypeError):
            check_value(object())

    def test_rejects_nan(self):
        """NaN equals nothing, not even itself: no relation could hold it
        and compare equal to its own copy."""
        with pytest.raises(TypeError, match="invalid relational value nan"):
            check_value(float("nan"))
        assert check_value(float("inf")) == float("inf")

    def test_relation_rejects_nan_cells(self):
        from repro.relational import Relation

        with pytest.raises(TypeError, match="invalid relational value nan"):
            Relation("R", ("A",), [(float("nan"),)])


class TestValueSortKey:
    def test_null_sorts_first(self):
        values = ["z", 3, NULL, "a"]
        ordered = sorted(values, key=value_sort_key)
        assert ordered[0] is NULL

    def test_total_order_deterministic(self):
        values = [1, "1", 1.0, True, NULL, "b"]
        first = sorted(values, key=value_sort_key)
        second = sorted(list(reversed(values)), key=value_sort_key)
        assert [repr(v) for v in first] == [repr(v) for v in second]

    def test_distinguishes_types(self):
        assert value_sort_key(1) != value_sort_key("1")


class TestValueToText:
    def test_string_identity(self):
        assert value_to_text("ATL29") == "ATL29"

    def test_null_is_empty(self):
        assert value_to_text(NULL) == ""

    def test_int(self):
        assert value_to_text(100) == "100"

    def test_integral_float_collapses(self):
        assert value_to_text(100.0) == "100"

    def test_fractional_float(self):
        assert value_to_text(12.5) == "12.5"

    def test_bool(self):
        assert value_to_text(True) == "true"
        assert value_to_text(False) == "false"
