"""Core value types for the relational substrate.

TUPELO manipulates whole databases as search states, so values must be
immutable and hashable.  Allowed atomic values are ``str``, ``int``,
``float``, ``bool`` and the :data:`NULL` sentinel introduced by the dynamic
data-metadata operators (``promote`` creates ragged columns that are padded
with NULL, and ``merge`` coalesces NULL-compatible tuples).
"""

from __future__ import annotations

from typing import Union


class NullType:
    """Singleton NULL marker.

    A dedicated type (rather than ``None``) so that NULL prints as SQL-style
    ``NULL``, sorts deterministically, and cannot be confused with "absent"
    Python values in the implementation.
    """

    _instance: "NullType | None" = None

    def __new__(cls) -> "NullType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __hash__(self) -> int:
        return hash("\x00tupelo-null\x00")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NullType)

    def __reduce__(self):  # keep the singleton through pickling
        return (NullType, ())


NULL = NullType()

Value = Union[str, int, float, bool, NullType]

_ALLOWED_TYPES = (str, int, float, bool, NullType)


def is_null(value: object) -> bool:
    """Return True iff *value* is the NULL sentinel."""
    return isinstance(value, NullType)


def check_value(value: object) -> Value:
    """Validate that *value* is an allowed atomic value and return it.

    ``None`` is coerced to :data:`NULL` as a convenience for loaders.  A
    float NaN is refused: it equals nothing, not even itself, so two
    relations holding it could never compare equal.

    Raises:
        TypeError: if the value is not an allowed atomic type, or is NaN.
    """
    if value is None:
        return NULL
    # value == value is False only for NaN
    if isinstance(value, _ALLOWED_TYPES) and value == value:
        return value
    raise TypeError(
        f"invalid relational value {value!r} of type {type(value).__name__}; "
        "allowed: str, int, float (not NaN), bool, NULL"
    )


def value_sort_key(value: Value) -> tuple[int, str]:
    """Deterministic total order over heterogeneous values.

    NULL sorts first, then everything else by type name and string rendering.
    Used to canonicalize row order in display and TNF tuple identifiers.
    """
    if is_null(value):
        return (0, "")
    return (1, f"{type(value).__name__}:{value!r}")


def value_to_text(value: Value) -> str:
    """Render a value the way TNF and the string-view heuristic see it.

    Strings render as themselves (no quotes); NULL renders as the empty
    string so it contributes nothing to string distances.
    """
    if is_null(value):
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
