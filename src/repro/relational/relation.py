"""Immutable relation values, stored columnar over interned tokens.

A :class:`Relation` is a named set of tuples over a fixed attribute list.
Relations are *canonical*: attributes are stored in sorted order and rows in
a frozenset, so two relations with the same name, attribute set, and tuple
set are equal (and hash equal) regardless of construction order.  This is
what lets the search engine deduplicate whole-database states cheaply.

The primary storage is a frozenset of **token-id tuples**: every cell value
is interned once per process (see :mod:`repro.relational.intern`) and rows
hold small integers.  Hashing, equality, row deduplication and containment
are integer-tuple operations, and the text/sort-key data consulted by the
search hot loops is shared per-token instead of recomputed per relation.
The value-level API (:attr:`rows`, :meth:`column_values`, ...) serves value
rows as a derived view reconstructed from the tokens on demand.

Immutability also makes every derived view (sorted rows, column value sets,
column text ids, ...) a pure function of the relation, so views are computed
lazily once and memoised for the lifetime of the value — IDA*/RBFS re-visit
the same states across iterations and the successor-proposal rules consult
the same column views many times per expansion.  All cached views are
immutable containers (tuples / frozensets), so callers can never corrupt a
cache through a returned reference.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import SchemaError, UnknownAttributeError
from .intern import (
    NULL_TOKEN,
    POOL,
    SORT_KEYS,
    TEXT_IDS,
    VALUES,
    intern_value,
)
from .types import NULL, Value, is_null, value_to_text

#: sentinel distinguishing "view absent" from legitimately-falsy view values
#: (``has_nulls`` caches booleans) during view transplantation
_TRANSPLANT_MISS = object()

Row = tuple[Value, ...]

TokenRow = tuple[int, ...]
"""One stored row: cell token ids in canonical attribute order."""


@lru_cache(maxsize=None)
def _rename_schema(
    attrs: tuple[str, ...], pos: int, new: str
) -> tuple[tuple[str, ...], tuple[int, ...] | None, dict[str, int]]:
    """Canonicalisation flyweight for single-attribute renames.

    For canonical *attrs* with position *pos* renamed to *new*, returns the
    child's canonical attribute tuple, the column permutation to apply to
    token rows (``None`` when positions are unchanged), and the child's
    attribute index.  Rename edges draw from one problem's small schema
    vocabulary, so each triple is computed once per process; the returned
    index dict is shared between relations and must never be mutated
    (:class:`Relation` treats ``_index`` as read-only).
    """
    renamed = list(attrs)
    renamed[pos] = new
    order = sorted(range(len(renamed)), key=renamed.__getitem__)
    canonical = tuple(renamed[i] for i in order)
    perm = None if order == list(range(len(renamed))) else tuple(order)
    return canonical, perm, {a: i for i, a in enumerate(canonical)}


@lru_cache(maxsize=None)
def _interned_name_set(names: tuple[str, ...] | frozenset[str]) -> frozenset[int]:
    """Token ids for a (small, schema-vocabulary) set of names, memoised.

    Attribute/relation-name id sets recur across every state whose schema
    shares the names; one process-wide entry per distinct name collection
    replaces a per-relation interning loop.
    """
    return frozenset(intern_value(n) for n in names)


class Relation:
    """An immutable named relation (set of tuples over sorted attributes).

    Args:
        name: relation name (non-empty string).
        attributes: attribute names; duplicates are rejected.
        rows: iterable of rows, each aligned with *attributes* as given
            (the constructor re-orders values into canonical sorted-attribute
            order).

    Rows may be any sequence of atomic values; ``None`` entries are coerced
    to :data:`~repro.relational.types.NULL`.
    """

    __slots__ = (
        "_name",
        "_attributes",
        "_token_rows",
        "_index",
        "_hash",
        "_views",
        "_value_text_ids",
    )

    def __init__(
        self,
        name: str,
        attributes: Sequence[str],
        rows: Iterable[Sequence[Value]] = (),
    ) -> None:
        if not isinstance(name, str) or not name:
            raise SchemaError(f"relation name must be a non-empty string, got {name!r}")
        attrs = tuple(attributes)
        if not attrs:
            raise SchemaError(f"relation {name!r} must have at least one attribute")
        for attr in attrs:
            if not isinstance(attr, str) or not attr:
                raise SchemaError(
                    f"attribute names must be non-empty strings, got {attr!r} in {name!r}"
                )
        if len(set(attrs)) != len(attrs):
            duplicates = sorted({a for a in attrs if attrs.count(a) > 1})
            raise SchemaError(f"duplicate attributes {duplicates} in relation {name!r}")

        order = sorted(range(len(attrs)), key=lambda i: attrs[i])
        canonical_attrs = tuple(attrs[i] for i in order)

        arity = len(attrs)
        # Pool hits intern at C speed; a miss (a new value, None, or an
        # unhashable or invalid value) takes intern_value's checked path.
        probe = POOL.get
        reorder = itemgetter(*order) if order != list(range(arity)) else None
        token_rows: set[TokenRow] = set()
        add = token_rows.add
        for row in rows:
            try:
                tokens = tuple(map(probe, row))
                hit = None not in tokens
            except TypeError:  # unhashable: intern_value raises the message
                hit = False
            if not hit:
                tokens = tuple(intern_value(v) for v in row)
            if len(tokens) != arity:
                raise SchemaError(
                    f"row {row!r} has arity {len(tokens)}, "
                    f"expected {arity} for relation {name!r}"
                )
            add(tokens if reorder is None else reorder(tokens))

        self._name = name
        self._attributes = canonical_attrs
        self._token_rows: frozenset[TokenRow] = frozenset(token_rows)
        self._index = {attr: i for i, attr in enumerate(canonical_attrs)}
        self._hash = hash((self._name, self._attributes, self._token_rows))
        self._views: dict[object, object] = {}
        # The one frozenset view every search state carries, held outside
        # _views: a state whose view dict then holds only atoms (has_nulls)
        # keeps that dict untracked by the cyclic garbage collector.
        self._value_text_ids: frozenset[int] | None = None

    @classmethod
    def _from_token_rows(
        cls,
        name: str,
        attributes: tuple[str, ...],
        token_rows: frozenset[TokenRow],
        index: dict[str, int] | None = None,
    ) -> "Relation":
        """Internal fast constructor: no validation, no re-canonicalisation.

        Callers guarantee *attributes* is already in canonical (sorted)
        order, *token_rows* is a frozenset of token tuples aligned with it,
        and the schema invariants (non-empty unique attribute names,
        non-empty relation name) hold.  The operator fast paths build
        derived relations through here, skipping per-cell validation and
        interning entirely.
        """
        self = object.__new__(cls)
        self._name = name
        self._attributes = attributes
        self._token_rows = token_rows
        self._index = (
            index
            if index is not None
            else {attr: i for i, attr in enumerate(attributes)}
        )
        self._hash = hash((name, attributes, token_rows))
        self._views = {}
        self._value_text_ids = None
        return self

    def __getstate__(self) -> dict:
        """Pickle only the defining data — never the memoised views.

        Search-warm relations carry megabytes of derived views; shipping
        them across a process boundary (the parallel execution layer
        pickles states into workers) would dwarf the data itself.  Views
        rebuild lazily on first use in the receiving process.  Rows are
        shipped as *values*, never token ids: the intern pool is strictly
        process-local, and the receiving side re-interns.
        """
        return {
            "name": self._name,
            "attributes": self._attributes,
            "rows": tuple(self.rows),
        }

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["name"], state["attributes"], state["rows"])

    def cached_view(self, key: object, compute: Callable[[], object]) -> object:
        """Memoise a derived view of this (immutable) relation.

        The first call under *key* evaluates *compute* and stores the result
        for the relation's lifetime; later calls return the stored object.
        Stored views must be immutable (tuple/frozenset/str/int) and never
        ``None`` — the hottest accessors bypass this method with a plain
        ``self._views.get(key)`` probe and treat ``None`` as a miss.
        """
        try:
            return self._views[key]
        except KeyError:
            value = self._views[key] = compute()
            return value

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_dicts(
        cls,
        name: str,
        rows: Iterable[Mapping[str, Value]],
        attributes: Sequence[str] | None = None,
    ) -> "Relation":
        """Build a relation from dict rows.

        If *attributes* is omitted it is the union of keys across rows;
        missing keys in individual rows become NULL.
        """
        rows = list(rows)
        if attributes is None:
            seen: dict[str, None] = {}
            for row in rows:
                for key in row:
                    seen.setdefault(key, None)
            attributes = tuple(seen)
            if not attributes:
                raise SchemaError(
                    f"cannot infer attributes for relation {name!r} from empty rows"
                )
        aligned = [tuple(row.get(attr, NULL) for attr in attributes) for row in rows]
        return cls(name, attributes, aligned)

    # -- basic accessors -----------------------------------------------------

    @property
    def name(self) -> str:
        """Relation name."""
        return self._name

    @property
    def attributes(self) -> tuple[str, ...]:
        """Attribute names in canonical (sorted) order."""
        return self._attributes

    @property
    def attribute_set(self) -> frozenset[str]:
        """Attribute names as a set (memoised)."""
        views = self._views
        hit = views.get("attribute_set")
        if hit is not None:
            return hit
        value = views["attribute_set"] = frozenset(self._attributes)
        return value

    @property
    def rows(self) -> frozenset[Row]:
        """Rows as value tuples aligned with :attr:`attributes`.

        A derived view of the token storage, memoised on first use.
        """
        try:
            return self._views["value_rows"]
        except KeyError:
            values = VALUES
            rows = self._views["value_rows"] = frozenset(
                tuple(values[t] for t in trow) for trow in self._token_rows
            )
            return rows

    @property
    def token_rows(self) -> frozenset[TokenRow]:
        """Rows as interned token-id tuples (the primary storage)."""
        return self._token_rows

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self._attributes)

    @property
    def cardinality(self) -> int:
        """Number of tuples."""
        return len(self._token_rows)

    def __len__(self) -> int:
        return len(self._token_rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def has_attribute(self, attr: str) -> bool:
        """Whether *attr* is one of this relation's attributes."""
        return attr in self._index

    def attribute_position(self, attr: str) -> int:
        """Index of *attr* in :attr:`attributes` (raises if unknown)."""
        try:
            return self._index[attr]
        except KeyError:
            raise UnknownAttributeError(attr, self._name, self._attributes) from None

    def value(self, row: Row, attr: str) -> Value:
        """The value of *attr* in *row* (a row of this relation)."""
        return row[self.attribute_position(attr)]

    def column(self, attr: str) -> tuple[Value, ...]:
        """All values of *attr*, in deterministic sorted-row order."""
        pos = self.attribute_position(attr)
        return tuple(row[pos] for row in self.sorted_rows_view())

    def column_values(self, attr: str, include_null: bool = False) -> frozenset[Value]:
        """The set of values appearing in column *attr* (memoised)."""

        def compute() -> frozenset[Value]:
            values = VALUES
            tokens = self.column_tokens(attr, include_null=include_null)
            return frozenset(values[t] for t in tokens)

        return self.cached_view(("column_values", attr, include_null), compute)

    def column_tokens(self, attr: str, include_null: bool = False) -> frozenset[int]:
        """The set of token ids appearing in column *attr* (memoised)."""
        key = ("column_tokens", attr, include_null)
        views = self._views
        hit = views.get(key)
        if hit is not None:
            return hit
        pos = self.attribute_position(attr)
        tokens = frozenset(trow[pos] for trow in self._token_rows)
        if not include_null:
            tokens -= {NULL_TOKEN}
        views[key] = tokens
        return tokens

    def column_text_id_sets(self) -> tuple[frozenset[int], ...]:
        """Per-column text-id sets, aligned with :attr:`attributes` (memoised).

        One tuple view instead of one cache entry per column: probes are an
        index away, and relation renames and projections transplant the
        whole view with a single permutation — the member frozensets are
        shared, never copied.
        """
        views = self._views
        hit = views.get("column_text_id_sets")
        if hit is not None:
            return hit
        text_ids = TEXT_IDS
        value = views["column_text_id_sets"] = tuple(
            frozenset(text_ids[t] for t in self.column_tokens(attr))
            for attr in self._attributes
        )
        return value

    def column_text_ids(self, attr: str) -> frozenset[int]:
        """Token ids of the text forms of column *attr*'s non-NULL values.

        Values are rendered with
        :func:`~repro.relational.types.value_to_text`; one entry of
        :meth:`column_text_id_sets` (memoised).
        """
        try:
            pos = self._index[attr]
        except KeyError:
            raise UnknownAttributeError(attr, self._name, self._attributes) from None
        return self.column_text_id_sets()[pos]

    def value_set(self, include_null: bool = False) -> frozenset[Value]:
        """The set of all data values appearing anywhere (memoised)."""

        def compute() -> frozenset[Value]:
            values = VALUES
            return frozenset(
                values[t] for t in self.value_tokens(include_null=include_null)
            )

        return self.cached_view(("value_set", include_null), compute)

    def value_tokens(self, include_null: bool = False) -> frozenset[int]:
        """The set of token ids appearing anywhere (memoised)."""

        def compute() -> frozenset[int]:
            tokens: set[int] = set()
            for trow in self._token_rows:
                tokens.update(trow)
            if not include_null:
                tokens.discard(NULL_TOKEN)
            return frozenset(tokens)

        return self.cached_view(("value_tokens", include_null), compute)

    def value_text_ids(self) -> frozenset[int]:
        """Token ids of the text forms of all non-NULL values (memoised).

        Probed once per relation per expansion by the proposal rules, hence
        the inlined cache probe.
        """
        hit = self._value_text_ids
        if hit is not None:
            return hit
        text_ids = TEXT_IDS
        value = self._value_text_ids = frozenset(
            text_ids[t] for t in self.value_tokens()
        )
        return value

    def attribute_ids(self) -> frozenset[int]:
        """Token ids of this relation's attribute names (memoised)."""
        views = self._views
        hit = views.get("attribute_ids")
        if hit is not None:
            return hit
        value = views["attribute_ids"] = _interned_name_set(self._attributes)
        return value

    def filled_attribute_ids(self) -> frozenset[int]:
        """Token ids of the attribute names whose column holds a non-NULL
        value (π_ATT of this relation's TNF).

        Only a relation with NULLs scans its rows; it memoises the names.
        """
        if not self.has_nulls:
            return _interned_name_set(self._attributes if self._token_rows else ())
        names = self._views.get("filled_attributes")
        if names is None:
            token_rows = self._token_rows
            names = self._views["filled_attributes"] = tuple(
                attr
                for pos, attr in enumerate(self._attributes)
                if any(trow[pos] != NULL_TOKEN for trow in token_rows)
            )
        return _interned_name_set(names)

    def column_text_counts(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-column ``(text id, count)`` pairs over the non-NULL cells,
        aligned with :attr:`attributes` (memoised): this relation's share
        of the §3 term vector.  Renames carry it; projections rebuild it,
        since collapsing duplicate rows changes counts.
        """
        hit = self._views.get("column_text_counts")
        if hit is not None:
            return hit
        text_ids = TEXT_IDS
        columns: tuple[dict[int, int], ...] = tuple({} for _ in self._attributes)
        for trow in self._token_rows:
            for column, token in zip(columns, trow):
                if token != NULL_TOKEN:
                    text = text_ids[token]
                    column[text] = column.get(text, 0) + 1
        value = self._views["column_text_counts"] = tuple(
            tuple(column.items()) for column in columns
        )
        return value

    @property
    def has_nulls(self) -> bool:
        """Whether any tuple contains a NULL (memoised; probed per expansion)."""
        views = self._views
        hit = views.get("has_nulls")
        if hit is not None:
            return hit
        value = views["has_nulls"] = any(
            NULL_TOKEN in trow for trow in self._token_rows
        )
        return value

    def sorted_rows(self) -> list[Row]:
        """Rows in a deterministic total order (for display and TNF ids).

        Returns a fresh list each call; the underlying ordering is computed
        once and cached (see :meth:`sorted_rows_view`).
        """
        return list(self.sorted_rows_view())

    def sorted_rows_view(self) -> tuple[Row, ...]:
        """The memoised, immutable form of :meth:`sorted_rows`."""

        def compute() -> tuple[Row, ...]:
            values = VALUES
            return tuple(
                tuple(values[t] for t in trow) for trow in self.sorted_token_rows()
            )

        return self.cached_view("sorted_rows", compute)

    def sorted_token_rows(self) -> tuple[TokenRow, ...]:
        """Token rows in deterministic sorted order (memoised).

        The order matches :meth:`sorted_rows_view`: per-cell
        ``value_sort_key`` of the canonical token values.
        """

        def compute() -> tuple[TokenRow, ...]:
            sort_keys = SORT_KEYS
            return tuple(
                sorted(
                    self._token_rows,
                    key=lambda trow: tuple(sort_keys[t] for t in trow),
                )
            )

        return self.cached_view("sorted_token_rows", compute)

    def iter_dicts(self) -> Iterator[dict[str, Value]]:
        """Iterate rows as attribute->value dicts in deterministic order."""
        for row in self.sorted_rows():
            yield dict(zip(self._attributes, row))

    # -- schema-preserving derivations ----------------------------------------

    def _seed_column_views(
        self,
        child: "Relation",
        positions: Sequence[int] | None = None,
        columns_only: bool = False,
    ) -> None:
        """Transplant memoised views onto a derivation with the same columns.

        *positions* maps each child column index to the parent column it
        carries (identity when absent).  Per-column text-id sets transfer
        whenever the child column holds the same value *set* as the parent
        column — true for renames (rows untouched) and for projections
        (duplicate-row collapse never removes the last copy of a value) —
        and the transfer is a single tuple permutation sharing the member
        frozensets.  Unless *columns_only*, whole-relation cell aggregates
        (value text ids, has-nulls) transfer too; those are
        permutation-invariant but not projection-safe.
        """
        if not columns_only:
            child._value_text_ids = self._value_text_ids
        src = self._views
        if not src:
            return
        dst = child._views
        # only the views the hot proposal/heuristic paths consume: anything
        # else rebuilds lazily, and probing for it here would cost more
        # than the occasional recompute saves
        cols = src.get("column_text_id_sets")
        if cols is not None:
            dst["column_text_id_sets"] = (
                cols if positions is None else tuple(cols[p] for p in positions)
            )
        if columns_only:
            return
        hit = src.get("has_nulls")
        if hit is not None:
            dst["has_nulls"] = hit

    def renamed(self, new_name: str) -> "Relation":
        """A copy of this relation under a new name."""
        if not isinstance(new_name, str) or not new_name:
            raise SchemaError(
                f"relation name must be a non-empty string, got {new_name!r}"
            )
        # token rows and attribute index are shared: same schema, same rows
        child = Relation._from_token_rows(
            new_name, self._attributes, self._token_rows, self._index
        )
        self._seed_column_views(child)
        src, dst = self._views, child._views
        miss = _TRANSPLANT_MISS
        # name-independent whole-relation views (rows and schema shared)
        for key in (
            "attribute_set",
            "attribute_ids",
            "filled_attributes",
            "column_text_counts",
            "sorted_token_rows",
            "sorted_rows",
            "value_rows",
        ):
            hit = src.get(key, miss)
            if hit is not miss:
                dst[key] = hit
        return child

    def rename_attribute(self, old: str, new: str) -> "Relation":
        """A copy with attribute *old* renamed to *new*."""
        pos = self.attribute_position(old)
        if new in self._index and new != old:
            raise SchemaError(
                f"cannot rename {old!r} to {new!r}: attribute already exists "
                f"in relation {self._name!r}"
            )
        if not isinstance(new, str) or not new:
            raise SchemaError(
                f"attribute names must be non-empty strings, got {new!r} "
                f"in {self._name!r}"
            )
        return self._renamed_attribute(pos, new)

    def _renamed_attribute(self, pos: int, new: str) -> "Relation":
        """:meth:`rename_attribute` of column *pos*, after validation.

        The rename operator validates its arguments once and derives its
        child through here.  Token rows are shared when column positions do
        not change, and permuted for the child alone otherwise.  The
        whole-relation cell aggregates the proposal rules probe (value text
        ids, has-nulls) carry over, as do the column text counts, permuted
        like the rows; other per-column views rebuild on first use, since
        most renamed children are never asked for them.
        """
        canonical_attrs, perm, index = _rename_schema(self._attributes, pos, new)
        token_rows = (
            self._token_rows
            if perm is None
            else frozenset(map(itemgetter(*perm), self._token_rows))
        )
        child = Relation._from_token_rows(
            self._name, canonical_attrs, token_rows, index
        )
        child._value_text_ids = self._value_text_ids
        views = self._views
        hit = views.get("has_nulls")
        if hit is not None:
            child._views["has_nulls"] = hit
        counts = views.get("column_text_counts")
        if counts is not None:
            child._views["column_text_counts"] = (
                counts if perm is None else itemgetter(*perm)(counts)
            )
        return child

    def project(self, attrs: Sequence[str]) -> "Relation":
        """Projection onto *attrs* (set semantics: duplicate rows collapse)."""
        positions = [self.attribute_position(a) for a in attrs]
        attrs = tuple(attrs)
        if not attrs:
            raise SchemaError(
                f"relation {self._name!r} must have at least one attribute"
            )
        if len(set(attrs)) != len(attrs):
            duplicates = sorted({a for a in attrs if attrs.count(a) > 1})
            raise SchemaError(
                f"duplicate attributes {duplicates} in relation {self._name!r}"
            )
        order = sorted(range(len(attrs)), key=lambda i: attrs[i])
        canonical_attrs = tuple(attrs[i] for i in order)
        canonical_positions = [positions[i] for i in order]
        if len(canonical_positions) == 1:
            pos = canonical_positions[0]
            token_rows = frozenset((trow[pos],) for trow in self._token_rows)
        else:
            token_rows = frozenset(
                map(itemgetter(*canonical_positions), self._token_rows)
            )
        child = Relation._from_token_rows(self._name, canonical_attrs, token_rows)
        # duplicate-row collapse never removes the last copy of a value,
        # so surviving columns keep their exact value sets
        self._seed_column_views(child, canonical_positions, columns_only=True)
        return child

    def drop_attribute(self, attr: str) -> "Relation":
        """Projection dropping a single attribute (the FIRA π̄ operator)."""
        self.attribute_position(attr)  # raise early with a precise error
        remaining = [a for a in self._attributes if a != attr]
        if not remaining:
            raise SchemaError(
                f"cannot drop {attr!r}: it is the only attribute of {self._name!r}"
            )
        return self.project(remaining)

    def extend(self, attr: str, compute: Callable[[dict[str, Value]], Value]) -> "Relation":
        """Append a computed column named *attr*.

        *compute* receives each row as a dict and returns the new value.
        """
        if attr in self._index:
            raise SchemaError(
                f"cannot extend {self._name!r} with {attr!r}: attribute already exists"
            )
        if not isinstance(attr, str) or not attr:
            raise SchemaError(
                f"attribute names must be non-empty strings, got {attr!r} "
                f"in {self._name!r}"
            )
        attrs = self._attributes + (attr,)
        order = sorted(range(len(attrs)), key=lambda i: attrs[i])
        canonical_attrs = tuple(attrs[i] for i in order)
        values = VALUES
        attributes = self._attributes
        extended: list[TokenRow] = []
        for trow in self._token_rows:
            row_dict = {a: values[t] for a, t in zip(attributes, trow)}
            tokens = trow + (intern_value(compute(row_dict)),)
            extended.append(tuple(tokens[i] for i in order))
        return Relation._from_token_rows(
            self._name, canonical_attrs, frozenset(extended)
        )

    def with_rows(self, rows: Iterable[Row]) -> "Relation":
        """A copy with the given canonical-order rows replacing the current ones."""
        return Relation(self._name, self._attributes, rows)

    def filter_rows(self, predicate: Callable[[dict[str, Value]], bool]) -> "Relation":
        """Relational selection: keep rows whose dict satisfies *predicate*."""
        values = VALUES
        attributes = self._attributes
        kept_tokens = frozenset(
            trow
            for trow in self._token_rows
            if predicate({a: values[t] for a, t in zip(attributes, trow)})
        )
        return Relation._from_token_rows(
            self._name, self._attributes, kept_tokens, self._index
        )

    # -- comparisons -----------------------------------------------------------

    def contains(self, other: "Relation") -> bool:
        """Instance containment used by the search goal test.

        True iff *other*'s attributes are a subset of ours and every tuple of
        *other* appears in our projection onto those attributes.  Names are
        not compared here (the database-level check compares names).
        """
        index = self._index
        for attr in other._attributes:
            if attr not in index:
                return False

        def compute() -> frozenset[TokenRow]:
            positions = [self._index[a] for a in other.attributes]
            return frozenset(
                tuple(trow[p] for p in positions) for trow in self._token_rows
            )

        projected = self.cached_view(("token_projection", other.attributes), compute)
        return other.token_rows <= projected

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self._hash == other._hash
            and self._name == other._name
            and self._attributes == other._attributes
            and self._token_rows == other._token_rows
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return (
            f"Relation({self._name!r}, attributes={list(self._attributes)}, "
            f"rows={self.cardinality})"
        )

    def to_text(self) -> str:
        """Human-readable fixed-width rendering (used by examples)."""
        headers = list(self._attributes)
        body = [[value_to_text(v) or "NULL" if is_null(v) else value_to_text(v) for v in row]
                for row in self.sorted_rows()]
        widths = [len(h) for h in headers]
        for row in body:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [f"{self._name}:"]
        lines.append("  " + "  ".join(h.ljust(w) for h, w in zip(headers, widths)))
        lines.append("  " + "  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  " + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)
