"""Complex semantic functions (§4 of the paper).

A semantic function is an opaque "black box" transforming one or more input
attribute values into a single output value — the many-to-one complex
mappings that pure structural transformation cannot express (summing a cost
and a fee, concatenating names, converting dates or currencies, looking up
an identifier).  TUPELO does not interpret these functions during search; it
only checks that applications are well-typed, and resolves the actual
callable from a :class:`FunctionRegistry` when a mapping expression is
executed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import SignatureError, UnknownFunctionError
from ..relational.types import NULL, Value, check_value, is_null


@dataclass(frozen=True)
class SemanticFunction:
    """A named complex semantic function with a fixed arity.

    Attributes:
        name: registry key, unique within a registry.
        arity: number of input values.
        func: the underlying callable (receives ``arity`` values).
        description: human-readable summary for documentation.
        null_propagating: if True (default), any NULL input yields NULL
            without calling ``func`` — the usual SQL-style semantics.
    """

    name: str
    arity: int
    func: Callable[..., Value] = field(compare=False)
    description: str = ""
    null_propagating: bool = True

    def __post_init__(self) -> None:
        if not self.name:
            raise SignatureError("semantic function name must be non-empty")
        if self.arity < 1:
            raise SignatureError(
                f"semantic function {self.name!r} must take at least one input"
            )

    def apply(self, *args: Value) -> Value:
        """Apply the function to *args*, enforcing arity and NULL semantics."""
        if len(args) != self.arity:
            raise SignatureError(
                f"function {self.name!r} expects {self.arity} arguments, "
                f"got {len(args)}"
            )
        if self.null_propagating and any(is_null(a) for a in args):
            return NULL
        return check_value(self.func(*args))

    def __call__(self, *args: Value) -> Value:
        return self.apply(*args)


class FunctionRegistry:
    """A mutable name -> :class:`SemanticFunction` mapping.

    Registries are the only mutable objects in the core library; a search is
    handed a registry (or uses :func:`builtin_registry`) and treats it as
    read-only.
    """

    def __init__(self, functions: Iterable[SemanticFunction] = ()) -> None:
        self._functions: dict[str, SemanticFunction] = {}
        for fn in functions:
            self.register(fn)

    def register(self, fn: SemanticFunction, replace: bool = False) -> SemanticFunction:
        """Add *fn*; re-registering a name requires ``replace=True``."""
        if fn.name in self._functions and not replace:
            raise SignatureError(
                f"function {fn.name!r} already registered; pass replace=True"
            )
        self._functions[fn.name] = fn
        return fn

    def define(
        self,
        name: str,
        arity: int,
        func: Callable[..., Value],
        description: str = "",
        null_propagating: bool = True,
        replace: bool = False,
    ) -> SemanticFunction:
        """Convenience: build and register a :class:`SemanticFunction`."""
        return self.register(
            SemanticFunction(name, arity, func, description, null_propagating),
            replace=replace,
        )

    def get(self, name: str) -> SemanticFunction:
        """Look up a function (raises :class:`UnknownFunctionError`)."""
        try:
            return self._functions[name]
        except KeyError:
            raise UnknownFunctionError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    def __iter__(self) -> Iterator[SemanticFunction]:
        return iter(self._functions.values())

    def __len__(self) -> int:
        return len(self._functions)

    @property
    def names(self) -> tuple[str, ...]:
        """Registered function names, sorted."""
        return tuple(sorted(self._functions))

    def merged(self, other: "FunctionRegistry") -> "FunctionRegistry":
        """A new registry with *other*'s functions overriding ours on clash."""
        merged = FunctionRegistry(self)
        for fn in other:
            merged.register(fn, replace=True)
        return merged


# ---------------------------------------------------------------------------
# Built-in functions — the kinds of complex mappings the paper motivates
# (Example 5: name->ID lookup, first/last concatenation, Cost+Fee sum; §4:
# date / weight / financial conversions).
# ---------------------------------------------------------------------------


def _as_number(value: Value, context: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        try:
            return float(str(value))
        except (TypeError, ValueError):
            raise SignatureError(f"{context}: expected a number, got {value!r}") from None
    return float(value)


def _numeric(value: float) -> Value:
    """Collapse floats that are integral back to int for clean rendering.

    A NaN result (``inf - inf``, say) is NULL, as a zero denominator is:
    NaN is no relational value, and SQLite stores it as NULL.
    """
    if value != value:
        return NULL
    if value.is_integer():
        return int(value)
    return value


def make_lookup(
    name: str, table: Mapping[Value, Value], description: str = ""
) -> SemanticFunction:
    """A unary lookup function backed by a finite table (Example 5's f1).

    Unmapped inputs yield NULL — a lookup "cannot be generalized from
    examples" (§4), so out-of-table inputs have no defined image.
    """
    frozen = dict(table)

    def lookup(value: Value) -> Value:
        return frozen.get(value, NULL)

    return SemanticFunction(
        name, 1, lookup, description or f"finite lookup table ({len(frozen)} entries)"
    )


def make_concat(name: str, separator: str = " ", arity: int = 2) -> SemanticFunction:
    """An n-ary string concatenation with a fixed separator (Example 5's f2)."""

    def concat(*args: Value) -> Value:
        return separator.join(str(a) for a in args)

    return SemanticFunction(
        name, arity, concat, f"concatenate {arity} values with {separator!r}"
    )


def make_linear(
    name: str, factor: float, offset: float = 0.0, description: str = ""
) -> SemanticFunction:
    """A unary linear conversion ``x -> factor*x + offset``.

    Covers weight, temperature, and fixed-rate financial conversions (§4).
    """

    def convert(value: Value) -> Value:
        return _numeric(_as_number(value, name) * factor + offset)

    return SemanticFunction(name, 1, convert, description or f"x -> {factor}*x + {offset}")


def _add(*args: Value) -> Value:
    return _numeric(sum(_as_number(a, "add") for a in args))


def _subtract(a: Value, b: Value) -> Value:
    return _numeric(_as_number(a, "subtract") - _as_number(b, "subtract"))


def _multiply(a: Value, b: Value) -> Value:
    return _numeric(_as_number(a, "multiply") * _as_number(b, "multiply"))


def _divide(a: Value, b: Value) -> Value:
    denominator = _as_number(b, "divide")
    if denominator == 0:
        return NULL
    return _numeric(_as_number(a, "divide") / denominator)


def _date_mdy_to_iso(text: Value) -> Value:
    """Convert ``M/D/YYYY`` (US style) to ISO ``YYYY-MM-DD``."""
    parts = str(text).split("/")
    if len(parts) != 3:
        raise SignatureError(f"date_mdy_to_iso: cannot parse {text!r}")
    month, day, year = parts
    return f"{int(year):04d}-{int(month):02d}-{int(day):02d}"


def _full_name(first: Value, last: Value) -> Value:
    return f"{first} {last}"


def builtin_registry() -> FunctionRegistry:
    """A fresh registry populated with the built-in complex functions."""
    registry = FunctionRegistry()
    registry.define("add", 2, _add, "sum of two numbers (Example 5's f3)")
    registry.define("add3", 3, _add, "sum of three numbers")
    registry.define("subtract", 2, _subtract, "difference of two numbers")
    registry.define("multiply", 2, _multiply, "product of two numbers")
    registry.define("divide", 2, _divide, "ratio of two numbers (NULL for /0)")
    registry.define("concat", 2, lambda a, b: f"{a} {b}", "space concatenation")
    registry.define(
        "concat_comma", 2, lambda a, b: f"{a}, {b}", "comma concatenation"
    )
    registry.define("full_name", 2, _full_name, "first + last name (Example 5's f2)")
    registry.define("upper", 1, lambda v: str(v).upper(), "uppercase a string")
    registry.define("lower", 1, lambda v: str(v).lower(), "lowercase a string")
    registry.define(
        "date_mdy_to_iso", 1, _date_mdy_to_iso, "US M/D/YYYY date to ISO YYYY-MM-DD"
    )
    registry.register(
        make_linear("lb_to_kg", 0.45359237, description="pounds to kilograms")
    )
    registry.register(
        make_linear("usd_to_eur", 0.92, description="US dollars to euros (fixed rate)")
    )
    registry.register(
        make_linear("sqft_to_sqm", 0.09290304, description="square feet to square meters")
    )
    return registry
