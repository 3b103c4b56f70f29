"""Rename operators ρatt / ρrel (schema matching as a special case of L).

The paper observes that using L for data mapping "blurs the distinction
between schema matching and schema mapping since L has simple schema
matching (i.e., finding appropriate renamings via ρ) as a special case."
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import OperatorApplicationError, SchemaError
from ..relational.database import Database
from .base import Operator, RelationOperator


@dataclass(frozen=True)
class RenameAttribute(RelationOperator):
    """ρatt — rename attribute *old* to *new* in one relation.

    Example 2 (step R4): ``ρatt AgentFee→Fee`` matches schema elements.
    """

    relation: str
    old: str
    new: str

    keyword = "rename_att"

    def apply(self, db: Database, registry=None) -> Database:
        rel = self._target(db)
        if not rel.has_attribute(self.old):
            raise OperatorApplicationError(
                f"rename_att: {self.relation!r} has no attribute {self.old!r}"
            )
        if self.old == self.new:
            raise OperatorApplicationError(
                f"rename_att: renaming {self.old!r} to itself is not a transformation"
            )
        if rel.has_attribute(self.new):
            raise OperatorApplicationError(
                f"rename_att: {self.relation!r} already has attribute {self.new!r}"
            )
        if not isinstance(self.new, str) or not self.new:
            raise SchemaError(
                f"attribute names must be non-empty strings, got {self.new!r} "
                f"in {self.relation!r}"
            )
        # validated once here: derive the child without re-checking
        renamed = rel._renamed_attribute(rel.attribute_position(self.old), self.new)
        return db._replacing(renamed)

    def is_applicable(self, db: Database) -> bool:
        if not db.has_relation(self.relation) or self.old == self.new:
            return False
        rel = db.relation(self.relation)
        return rel.has_attribute(self.old) and not rel.has_attribute(self.new)

    def __str__(self) -> str:
        return f"rename_att[{self.relation}]({self.old} -> {self.new})"

    def to_unicode(self) -> str:
        return f"ρatt{{{self.old}→{self.new}}}({self.relation})"


@dataclass(frozen=True)
class RenameRelation(Operator):
    """ρrel — rename a relation.

    Example 2 (step R4): ``ρrel Prices→Flights``.
    """

    old: str
    new: str

    keyword = "rename_rel"

    def apply(self, db: Database, registry=None) -> Database:
        if not db.has_relation(self.old):
            raise OperatorApplicationError(
                f"rename_rel: no relation {self.old!r} among "
                f"{list(db.relation_names)}"
            )
        if self.old == self.new:
            raise OperatorApplicationError(
                f"rename_rel: renaming {self.old!r} to itself is not a transformation"
            )
        if db.has_relation(self.new):
            raise OperatorApplicationError(
                f"rename_rel: relation {self.new!r} already exists"
            )
        return db.rename_relation(self.old, self.new)

    def is_applicable(self, db: Database) -> bool:
        return (
            self.old != self.new
            and db.has_relation(self.old)
            and not db.has_relation(self.new)
        )

    def __str__(self) -> str:
        return f"rename_rel({self.old} -> {self.new})"

    def to_unicode(self) -> str:
        return f"ρrel{{{self.old}→{self.new}}}"
