"""Dynamic data-metadata operators: promote (↑), demote (↓), dereference (→),
partition (℘).

These are the operators that let L move information between the data and
metadata levels (Table 1 of the paper):

* ``↑A→B`` promotes the *values* of column A to new attribute names, each
  new column carrying the corresponding value of column B — the core of a
  relational PIVOT.  Mapping FlightsB to FlightsA starts with
  ``↑Cost/Route``: Route values (ATL29, ORD17) become columns holding Cost.
* ``↓`` demotes metadata to data: the cartesian product of R with a binary
  table listing R's metadata (relation name and attribute names).  Composed
  with dereference it expresses UNPIVOT.
* ``→B/A`` appends a column B holding ``t[t[A]]``: the value of the
  attribute *named by* t's value in column A.
* ``℘A`` partitions R into one relation per value of column A, named by
  that value — promoting data to *relation* names.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OperatorApplicationError
from ..relational.database import Database
from ..relational.intern import NULL_TOKEN, TEXTS, intern_value
from ..relational.relation import Relation, TokenRow
from ..relational.types import Value, is_null, value_to_text
from .base import RelationOperator

#: reserved column names introduced by demote
DEMOTE_REL_ATTR = "$REL"
DEMOTE_ATT_ATTR = "$ATT"


def _column_name_for(value: Value) -> str | None:
    """The attribute name a data value induces when promoted, or None.

    NULLs and values rendering to the empty string cannot name a column.
    """
    if is_null(value):
        return None
    text = value_to_text(value)
    return text or None


@dataclass(frozen=True)
class Promote(RelationOperator):
    """↑A→B — promote column A's values to attribute names carrying B's values.

    For every tuple ``t``, a new column named ``t[A]`` is appended with value
    ``t[B]``; tuples that do not define a given new column hold NULL there.
    The promoted relation is "ragged" until a subsequent merge (µ) coalesces
    compatible tuples.

    Attributes:
        relation: relation to transform.
        name_attr: column A whose values become attribute names.
        value_attr: column B whose values populate the new columns.
    """

    relation: str
    name_attr: str
    value_attr: str

    keyword = "promote"

    def apply(self, db: Database, registry=None) -> Database:
        rel = self._target(db)
        for attr in (self.name_attr, self.value_attr):
            if not rel.has_attribute(attr):
                raise OperatorApplicationError(
                    f"promote: {self.relation!r} has no attribute {attr!r}"
                )
        name_pos = rel.attribute_position(self.name_attr)
        value_pos = rel.attribute_position(self.value_attr)

        new_columns: list[str] = []
        seen: set[str] = set()
        texts = TEXTS
        for trow in rel.sorted_token_rows():
            token = trow[name_pos]
            if token == NULL_TOKEN:
                continue
            column = texts[token]
            if column and column not in seen:
                seen.add(column)
                new_columns.append(column)
        if not new_columns:
            raise OperatorApplicationError(
                f"promote: column {self.name_attr!r} of {self.relation!r} has no "
                "promotable values"
            )
        collisions = seen & rel.attribute_set
        if collisions:
            raise OperatorApplicationError(
                f"promote: values {sorted(collisions)} of {self.name_attr!r} collide "
                f"with existing attributes of {self.relation!r}"
            )

        # build the ragged relation directly over token rows
        attrs = rel.attributes + tuple(new_columns)
        order = sorted(range(len(attrs)), key=lambda i: attrs[i])
        canonical_attrs = tuple(attrs[i] for i in order)
        column_slot = {column: i for i, column in enumerate(new_columns)}
        null_extension = [NULL_TOKEN] * len(new_columns)
        token_rows: set[TokenRow] = set()
        for trow in rel.token_rows:
            extension = list(null_extension)
            token = trow[name_pos]
            if token != NULL_TOKEN:
                slot = column_slot.get(texts[token])
                if slot is not None:
                    extension[slot] = trow[value_pos]
            tokens = trow + tuple(extension)
            token_rows.add(tuple(tokens[i] for i in order))
        return db.with_relation(
            Relation._from_token_rows(rel.name, canonical_attrs, frozenset(token_rows))
        )

    def is_applicable(self, db: Database) -> bool:
        if not db.has_relation(self.relation):
            return False
        rel = db.relation(self.relation)
        if not (rel.has_attribute(self.name_attr) and rel.has_attribute(self.value_attr)):
            return False
        names = {
            _column_name_for(v) for v in rel.column_values(self.name_attr)
        } - {None}
        return bool(names) and not (names & set(rel.attributes))

    def __str__(self) -> str:
        return f"promote[{self.relation}]({self.name_attr}; {self.value_attr})"

    def to_unicode(self) -> str:
        return f"↑{{{self.value_attr}}}{{{self.name_attr}}}({self.relation})"


@dataclass(frozen=True)
class Demote(RelationOperator):
    """↓ — demote metadata to data.

    Cartesian product of R with the binary table
    ``{(R.name, a) : a ∈ attributes(R)}`` exposed in reserved columns
    ``$REL`` and ``$ATT``.  Composing with ``→$VAL/$ATT`` (dereference)
    recovers each cell's value, which together express UNPIVOT.
    """

    relation: str

    keyword = "demote"

    def apply(self, db: Database, registry=None) -> Database:
        rel = self._target(db)
        for reserved in (DEMOTE_REL_ATTR, DEMOTE_ATT_ATTR):
            if rel.has_attribute(reserved):
                raise OperatorApplicationError(
                    f"demote: {self.relation!r} already has reserved column {reserved!r}"
                )
        attrs = rel.attributes + (DEMOTE_REL_ATTR, DEMOTE_ATT_ATTR)
        order = sorted(range(len(attrs)), key=lambda i: attrs[i])
        canonical_attrs = tuple(attrs[i] for i in order)
        name_token = intern_value(rel.name)
        attr_tokens = [intern_value(a) for a in rel.attributes]
        token_rows: set[TokenRow] = set()
        for trow in rel.token_rows:
            for attr_token in attr_tokens:
                tokens = trow + (name_token, attr_token)
                token_rows.add(tuple(tokens[i] for i in order))
        demoted = Relation._from_token_rows(
            rel.name, canonical_attrs, frozenset(token_rows)
        )
        return db.with_relation(demoted)

    def is_applicable(self, db: Database) -> bool:
        if not db.has_relation(self.relation):
            return False
        rel = db.relation(self.relation)
        return not (
            rel.has_attribute(DEMOTE_REL_ATTR) or rel.has_attribute(DEMOTE_ATT_ATTR)
        )

    def __str__(self) -> str:
        return f"demote[{self.relation}]()"

    def to_unicode(self) -> str:
        return f"↓({self.relation})"


@dataclass(frozen=True)
class Dereference(RelationOperator):
    """→B/A — append column B with value ``t[t[A]]``.

    ``t[A]`` is read as the *name* of another attribute of the same tuple;
    if it is NULL or not an attribute of R, the new cell is NULL.
    """

    relation: str
    pointer_attr: str
    new_attr: str

    keyword = "deref"

    def apply(self, db: Database, registry=None) -> Database:
        rel = self._target(db)
        if not rel.has_attribute(self.pointer_attr):
            raise OperatorApplicationError(
                f"deref: {self.relation!r} has no attribute {self.pointer_attr!r}"
            )
        if rel.has_attribute(self.new_attr):
            raise OperatorApplicationError(
                f"deref: {self.relation!r} already has attribute {self.new_attr!r}"
            )

        if not isinstance(self.new_attr, str) or not self.new_attr:
            raise OperatorApplicationError(
                f"deref: invalid new attribute name {self.new_attr!r}"
            )
        texts = TEXTS
        pointer_pos = rel.attribute_position(self.pointer_attr)
        positions = {attr: i for i, attr in enumerate(rel.attributes)}
        attrs = rel.attributes + (self.new_attr,)
        order = sorted(range(len(attrs)), key=lambda i: attrs[i])
        canonical_attrs = tuple(attrs[i] for i in order)
        token_rows: set[TokenRow] = set()
        for trow in rel.token_rows:
            pointer = trow[pointer_pos]
            if pointer == NULL_TOKEN:
                new_token = NULL_TOKEN
            else:
                position = positions.get(texts[pointer])
                new_token = trow[position] if position is not None else NULL_TOKEN
            tokens = trow + (new_token,)
            token_rows.add(tuple(tokens[i] for i in order))
        extended = Relation._from_token_rows(
            rel.name, canonical_attrs, frozenset(token_rows)
        )
        return db.with_relation(extended)

    def is_applicable(self, db: Database) -> bool:
        if not db.has_relation(self.relation):
            return False
        rel = db.relation(self.relation)
        return rel.has_attribute(self.pointer_attr) and not rel.has_attribute(
            self.new_attr
        )

    def __str__(self) -> str:
        return f"deref[{self.relation}]({self.pointer_attr} -> {self.new_attr})"

    def to_unicode(self) -> str:
        return f"→{{{self.new_attr}}}{{{self.pointer_attr}}}({self.relation})"


@dataclass(frozen=True)
class Partition(RelationOperator):
    """℘A — split R into one relation per value of column A.

    Each non-NULL value ``v`` of A yields a relation named ``v`` holding the
    tuples with ``t[A] = v`` (column A retained; drop it afterwards if the
    target schema does not carry it).  R itself is removed from the database.
    Mapping FlightsB to FlightsC starts with ``℘Carrier``: one relation per
    airline.
    """

    relation: str
    attribute: str

    keyword = "partition"

    def apply(self, db: Database, registry=None) -> Database:
        rel = self._target(db)
        if not rel.has_attribute(self.attribute):
            raise OperatorApplicationError(
                f"partition: {self.relation!r} has no attribute {self.attribute!r}"
            )
        position = rel.attribute_position(self.attribute)
        texts = TEXTS
        groups: dict[str, list[TokenRow]] = {}
        for trow in rel.sorted_token_rows():
            token = trow[position]
            name = texts[token] if token != NULL_TOKEN else ""
            if not name:
                raise OperatorApplicationError(
                    f"partition: column {self.attribute!r} of {self.relation!r} "
                    "contains values that cannot name a relation"
                )
            groups.setdefault(name, []).append(trow)
        if not groups:
            raise OperatorApplicationError(
                f"partition: relation {self.relation!r} is empty"
            )
        result = db.without_relation(self.relation)
        for name in groups:
            if result.has_relation(name):
                raise OperatorApplicationError(
                    f"partition: partition name {name!r} collides with an "
                    "existing relation"
                )
        return result.with_relations(
            Relation._from_token_rows(name, rel.attributes, frozenset(rows))
            for name, rows in groups.items()
        )

    def is_applicable(self, db: Database) -> bool:
        if not db.has_relation(self.relation):
            return False
        rel = db.relation(self.relation)
        if not rel.has_attribute(self.attribute) or rel.cardinality == 0:
            return False
        names = set()
        for value in rel.column_values(self.attribute, include_null=True):
            name = _column_name_for(value)
            if name is None:
                return False
            names.add(name)
        other_names = set(db.relation_names) - {self.relation}
        return not (names & other_names)

    def __str__(self) -> str:
        return f"partition[{self.relation}]({self.attribute})"

    def to_unicode(self) -> str:
        return f"℘{{{self.attribute}}}({self.relation})"
