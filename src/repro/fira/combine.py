"""Multi-tuple / multi-relation operators: cartesian product (×), merge (µ).

``µA`` is the Wyss–Robertson merge from their PIVOT/UNPIVOT characterisation
(paper reference [40]): tuples sharing a value of A whose remaining columns
are NULL-compatible coalesce into a single tuple.  It is the operator that
collapses the ragged relation produced by ``promote`` back into proper rows
(Example 2, step R3: ``µCarrier``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OperatorApplicationError
from ..relational.database import Database
from ..relational.intern import NULL_TOKEN
from ..relational.relation import Relation, Row, TokenRow
from ..relational.types import is_null, value_sort_key
from .base import Operator, RelationOperator


def tuples_compatible(left: Row, right: Row) -> bool:
    """NULL-compatibility: values agree wherever both are non-NULL."""
    return all(
        is_null(a) or is_null(b) or a == b for a, b in zip(left, right)
    )


def merge_tuples(left: Row, right: Row) -> Row:
    """Coalesce two compatible rows, preferring non-NULL values."""
    return tuple(b if is_null(a) else a for a, b in zip(left, right))


def merge_group(rows: list[Row]) -> list[Row]:
    """Greedily merge compatible rows in a group to a fixpoint.

    Deterministic: rows are processed in canonical sorted order and each row
    merges into the first compatible accumulated row.
    """
    ordered = sorted(rows, key=lambda row: tuple(value_sort_key(v) for v in row))
    merged: list[Row] = []
    for row in ordered:
        for i, existing in enumerate(merged):
            if tuples_compatible(existing, row):
                merged[i] = merge_tuples(existing, row)
                break
        else:
            merged.append(row)
    # A merge can unlock further merges (a row compatible with the coalesced
    # value but not with either original); iterate to a fixpoint.
    if len(merged) < len(rows):
        return merge_group(merged)
    return merged


def _has_compatible_pair(rows: list[TokenRow]) -> bool:
    null = NULL_TOKEN
    for i, left in enumerate(rows):
        for right in rows[i + 1 :]:
            if all(a == b or a == null or b == null for a, b in zip(left, right)):
                return True
    return False


def mergeable_positions(rel: Relation) -> frozenset[int]:
    """Attribute positions where :class:`Merge` changes *rel* (memoised).

    µA changes a relation exactly when two of its rows share a non-NULL
    A-value and are NULL-compatible: :func:`merge_group` then coalesces at
    least one pair, and its fixpoint leaves no two compatible rows, so the
    row set shrinks.  Otherwise every group comes back as it went in.  The
    test runs over token rows: the intern pool is equality-faithful, so
    token equality is value equality.  Two distinct rows without NULLs
    differ where both are non-NULL, so a NULL-free relation has no
    mergeable position.
    """

    def compute() -> frozenset[int]:
        if not rel.has_nulls:
            return frozenset()
        rows = rel.token_rows
        found = []
        for pos in range(rel.arity):
            groups: dict[int, list[TokenRow]] = {}
            for row in rows:
                if row[pos] != NULL_TOKEN:
                    groups.setdefault(row[pos], []).append(row)
            if any(
                _has_compatible_pair(group)
                for group in groups.values()
                if len(group) > 1
            ):
                found.append(pos)
        return frozenset(found)

    return rel.cached_view("mergeable_positions", compute)


@dataclass(frozen=True)
class Merge(RelationOperator):
    """µA — merge tuples with equal A-values that are NULL-compatible."""

    relation: str
    attribute: str

    keyword = "merge"

    def apply(self, db: Database, registry=None) -> Database:
        rel = self._target(db)
        if not rel.has_attribute(self.attribute):
            raise OperatorApplicationError(
                f"merge: {self.relation!r} has no attribute {self.attribute!r}"
            )
        position = rel.attribute_position(self.attribute)
        groups: dict[object, list[Row]] = {}
        null_rows: list[Row] = []
        for row in rel.rows:
            key = row[position]
            if is_null(key):
                # NULL never equals NULL: such tuples do not participate.
                null_rows.append(row)
            else:
                groups.setdefault(key, []).append(row)
        merged_rows: list[Row] = list(null_rows)
        for key in sorted(groups, key=value_sort_key):
            merged_rows.extend(merge_group(groups[key]))
        return db.with_relation(rel.with_rows(merged_rows))

    def is_applicable(self, db: Database) -> bool:
        if not db.has_relation(self.relation):
            return False
        return db.relation(self.relation).has_attribute(self.attribute)

    def __str__(self) -> str:
        return f"merge[{self.relation}]({self.attribute})"

    def to_unicode(self) -> str:
        return f"µ{{{self.attribute}}}({self.relation})"


def product_attributes(left: Relation, right: Relation) -> list[str]:
    """The attribute names of ``left × right``, left's columns first.

    An attribute both operands have is qualified with its relation's name
    (``R.a``).  A name that meets an earlier column's name takes the first
    free suffix ``#2``, ``#3``, … (repeated products can re-clash).  The
    algebra and the SQL compiler both name product columns here.
    """
    clashes = left.attribute_set & right.attribute_set
    names: list[str] = []
    used: set[str] = set()
    for rel in (left, right):
        for attr in rel.attributes:
            name = f"{rel.name}.{attr}" if attr in clashes else attr
            candidate, suffix = name, 2
            while candidate in used:
                candidate = f"{name}#{suffix}"
                suffix += 1
            used.add(candidate)
            names.append(candidate)
    return names


@dataclass(frozen=True)
class CartesianProduct(Operator):
    """×(R, S) — cartesian product as a new relation.

    The result is named ``<left>*<right>`` unless *result* is given; the
    operand relations remain in the database (the goal test tolerates
    supersets).  Attribute clashes are disambiguated by qualifying with the
    operand relation names (:func:`product_attributes`).
    """

    left: str
    right: str
    result: str | None = None

    keyword = "product"

    @property
    def result_name(self) -> str:
        """The name the product relation will carry."""
        return self.result if self.result is not None else f"{self.left}*{self.right}"

    def apply(self, db: Database, registry=None) -> Database:
        for name in (self.left, self.right):
            if not db.has_relation(name):
                raise OperatorApplicationError(
                    f"product: no relation {name!r} among "
                    f"{list(db.relation_names)}"
                )
        if self.left == self.right:
            raise OperatorApplicationError(
                "product: self-product requires distinct operand names "
                f"(got {self.left!r} twice)"
            )
        if db.has_relation(self.result_name):
            raise OperatorApplicationError(
                f"product: result name {self.result_name!r} already in use"
            )
        left_rel = db.relation(self.left)
        right_rel = db.relation(self.right)
        rows = [
            lrow + rrow for lrow in left_rel.rows for rrow in right_rel.rows
        ]
        product = Relation(
            self.result_name, product_attributes(left_rel, right_rel), rows
        )
        return db.with_relation(product, replace=False)

    def is_applicable(self, db: Database) -> bool:
        return (
            self.left != self.right
            and db.has_relation(self.left)
            and db.has_relation(self.right)
            and not db.has_relation(self.result_name)
        )

    def __str__(self) -> str:
        if self.result is not None:
            return f"product({self.left}, {self.right} -> {self.result})"
        return f"product({self.left}, {self.right})"

    def to_unicode(self) -> str:
        return f"×({self.left}, {self.right})"
