"""Unit tests for semantic functions (repro.semantics.functions)."""

from __future__ import annotations

import pytest

from repro.errors import SignatureError, UnknownFunctionError
from repro.relational import NULL
from repro.semantics import (
    FunctionRegistry,
    SemanticFunction,
    builtin_registry,
    make_concat,
    make_linear,
    make_lookup,
)


class TestSemanticFunction:
    def test_apply(self):
        double = SemanticFunction("double", 1, lambda v: v * 2)
        assert double.apply(21) == 42

    def test_callable(self):
        double = SemanticFunction("double", 1, lambda v: v * 2)
        assert double(5) == 10

    def test_arity_enforced(self):
        double = SemanticFunction("double", 1, lambda v: v * 2)
        with pytest.raises(SignatureError):
            double.apply(1, 2)

    def test_null_propagation_default(self):
        double = SemanticFunction("double", 1, lambda v: v * 2)
        assert double.apply(NULL) is NULL

    def test_null_propagation_disabled(self):
        coalesce = SemanticFunction(
            "c", 1, lambda v: "missing", null_propagating=False
        )
        assert coalesce.apply(NULL) == "missing"

    def test_output_validated(self):
        bad = SemanticFunction("bad", 1, lambda v: [v])
        with pytest.raises(TypeError):
            bad.apply(1)

    def test_empty_name_rejected(self):
        with pytest.raises(SignatureError):
            SemanticFunction("", 1, lambda v: v)

    def test_zero_arity_rejected(self):
        with pytest.raises(SignatureError):
            SemanticFunction("f", 0, lambda: 1)


class TestRegistry:
    def test_register_and_get(self):
        registry = FunctionRegistry()
        fn = registry.define("inc", 1, lambda v: v + 1)
        assert registry.get("inc") is fn
        assert "inc" in registry

    def test_duplicate_rejected(self):
        registry = FunctionRegistry()
        registry.define("f", 1, lambda v: v)
        with pytest.raises(SignatureError):
            registry.define("f", 1, lambda v: v)

    def test_replace_allowed(self):
        registry = FunctionRegistry()
        registry.define("f", 1, lambda v: 1)
        registry.define("f", 1, lambda v: 2, replace=True)
        assert registry.get("f").apply(0) == 2

    def test_unknown_function(self):
        with pytest.raises(UnknownFunctionError):
            FunctionRegistry().get("nope")

    def test_names_sorted(self):
        registry = FunctionRegistry()
        registry.define("z", 1, lambda v: v)
        registry.define("a", 1, lambda v: v)
        assert registry.names == ("a", "z")

    def test_merged_prefers_other(self):
        left = FunctionRegistry()
        left.define("f", 1, lambda v: "left")
        right = FunctionRegistry()
        right.define("f", 1, lambda v: "right")
        merged = left.merged(right)
        assert merged.get("f").apply(0) == "right"
        assert left.get("f").apply(0) == "left"  # originals untouched

    def test_len_and_iter(self):
        registry = builtin_registry()
        assert len(registry) == len(list(registry))


class TestBuiltins:
    def test_add_example5_f3(self):
        """Cost + AgentFee -> TotalCost (100 + 15 = 115)."""
        assert builtin_registry().get("add").apply(100, 15) == 115

    def test_add_floats_collapse_to_int(self):
        assert builtin_registry().get("add").apply(1.5, 2.5) == 4

    def test_subtract_multiply_divide(self):
        registry = builtin_registry()
        assert registry.get("subtract").apply(10, 4) == 6
        assert registry.get("multiply").apply(6, 7) == 42
        assert registry.get("divide").apply(9, 2) == 4.5

    def test_divide_by_zero_is_null(self):
        assert builtin_registry().get("divide").apply(1, 0) is NULL

    def test_nan_results_are_null(self):
        """inf - inf is NaN, which no relational value can hold."""
        registry = builtin_registry()
        inf = float("inf")
        assert registry.get("add").apply(inf, -inf) is NULL
        assert registry.get("subtract").apply(inf, inf) is NULL
        assert registry.get("multiply").apply(inf, 0) is NULL
        assert registry.get("divide").apply(inf, inf) is NULL
        assert registry.get("add").apply(inf, 1) == inf

    def test_full_name_example5_f2(self):
        assert builtin_registry().get("full_name").apply("John", "Smith") == (
            "John Smith"
        )

    def test_case_functions(self):
        registry = builtin_registry()
        assert registry.get("upper").apply("abc") == "ABC"
        assert registry.get("lower").apply("ABC") == "abc"

    def test_date_conversion(self):
        fn = builtin_registry().get("date_mdy_to_iso")
        assert fn.apply("3/15/2005") == "2005-03-15"

    def test_date_conversion_bad_input(self):
        with pytest.raises(SignatureError):
            builtin_registry().get("date_mdy_to_iso").apply("2005-03-15x")

    def test_unit_conversions(self):
        registry = builtin_registry()
        assert registry.get("lb_to_kg").apply(2) == pytest.approx(0.90718474)
        assert registry.get("usd_to_eur").apply(100) == 92

    def test_numeric_coercion_from_string(self):
        assert builtin_registry().get("add").apply("1", "2") == 3

    def test_non_numeric_rejected(self):
        with pytest.raises(SignatureError):
            builtin_registry().get("add").apply("x", 1)


class TestFactories:
    def test_make_lookup_example5_f1(self):
        lookup = make_lookup("cid", {"AirEast": 123, "JetWest": 456})
        assert lookup.apply("AirEast") == 123
        assert lookup.apply("JetWest") == 456

    def test_lookup_miss_is_null(self):
        lookup = make_lookup("cid", {"AirEast": 123})
        assert lookup.apply("Unknown") is NULL

    def test_make_concat(self):
        concat3 = make_concat("c3", separator="-", arity=3)
        assert concat3.apply("a", "b", "c") == "a-b-c"

    def test_make_linear(self):
        f_to_c = make_linear("f_to_c", 5 / 9, -160 / 9)
        assert f_to_c.apply(212) == pytest.approx(100)
