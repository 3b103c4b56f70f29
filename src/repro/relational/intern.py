"""Process-global value intern pool behind the columnar relation storage.

Every atomic value that enters a :class:`~repro.relational.relation.Relation`
is interned to a small integer **token id**; relations store rows as tuples
of token ids, so row hashing, equality, deduplication and containment all
become integer-tuple operations, and the per-token derived data consulted by
the hot loops (text rendering, text token id, deterministic sort key, NULL
flag) is computed exactly once per distinct value per process.

The pool is keyed by the raw value under Python equality, which makes the
token mapping *equality-faithful*: two values are assigned the same token
iff they compare equal.  Like any ``frozenset`` of value rows, this
conflates ``==``-equal values (``1``, ``True`` and ``1.0`` hash equal and
collapse to one representative); the surviving representative is the
first-seen value process-wide.

Token ids are **process-local** and must never cross a process boundary:
pickled relations ship their value rows (see ``Relation.__getstate__``) and
re-intern lazily on the receiving side.

The parallel lists (:data:`VALUES`, :data:`TEXTS`, :data:`TEXT_IDS`,
:data:`SORT_KEYS`) are append-only and never rebound, so hot loops may
import them directly and index at C speed; likewise :data:`POOL`, whose
``get`` looks a value's token up without interning it.  ``TEXT_IDS[tok]``
is itself a token id — the token of the *text rendering* of ``tok``'s
value (texts are strings, and strings are values) — which lets text-level
set comparisons (e.g. "does this column mention a missing target attribute
name?") run as integer set intersections.
"""

from __future__ import annotations

from .types import NULL, Value, check_value, is_null, value_sort_key, value_to_text

#: value -> token id (keyed by raw value under Python ``==``); read-only
#: outside this module, where a ``POOL.get`` probe interns a known value
POOL: dict = {}

#: token id -> canonical (first-seen) value
VALUES: list = []

#: token id -> text rendering (``value_to_text`` of the canonical value)
TEXTS: list = []

#: token id -> token id of the text rendering (always a str token)
TEXT_IDS: list = []

#: token id -> deterministic sort key (``value_sort_key``)
SORT_KEYS: list = []

#: tokens whose canonical value is an int outside the signed 64-bit range
#: (SQLite's INTEGER); empty unless such an int was ever interned
WIDE_INT_TOKENS: set[int] = set()


def _add(value: Value) -> int:
    token = len(VALUES)
    if isinstance(value, int) and not -(2**63) <= value < 2**63:
        WIDE_INT_TOKENS.add(token)
    VALUES.append(value)
    text = value_to_text(value)
    TEXTS.append(text)
    SORT_KEYS.append(value_sort_key(value))
    POOL[value] = token
    # after the pool entry, so interning a str (whose text is itself)
    # terminates immediately instead of recursing
    TEXT_IDS.append(intern_value(text))
    return token


def intern_value(value: object) -> int:
    """The token id for *value*, interning it on first sight.

    ``None`` is coerced to :data:`~repro.relational.types.NULL` and invalid
    value types raise ``TypeError``, exactly as
    :func:`~repro.relational.types.check_value` does.
    """
    try:
        token = POOL.get(value)
    except TypeError:
        check_value(value)  # raises the canonical invalid-value TypeError
        raise
    if token is not None:
        return token
    checked = check_value(value)
    if checked is not value:  # None -> NULL coercion may already be pooled
        token = POOL.get(checked)
        if token is not None:
            return token
    return _add(checked)


def token_text(token: int) -> str:
    """The text rendering of *token*'s value."""
    return TEXTS[token]


#: the token id of the NULL sentinel — interned first, so always 0
NULL_TOKEN: int = intern_value(NULL)

assert NULL_TOKEN == 0 and is_null(VALUES[NULL_TOKEN])
