"""Operator abstraction for the transformation language L.

L is the FIRA fragment of Table 1 in the paper: dynamic data-metadata
restructuring operators plus renaming, extended (§4) with the λ operator for
complex semantic functions.  Every operator is an immutable value object
with:

* :meth:`Operator.apply` — a total function from databases to databases
  (raising :class:`~repro.errors.OperatorApplicationError` when genuinely
  inapplicable, e.g. referencing a missing relation);
* :meth:`Operator.is_applicable` — a cheap pre-check used by the search
  successor generator;
* a parseable textual form (``str``) and a paper-style unicode form
  (:meth:`Operator.to_unicode`).

Operators compare and hash by value so that search can deduplicate moves.
"""

from __future__ import annotations

import abc
from functools import cached_property
from typing import TYPE_CHECKING

from ..errors import OperatorApplicationError
from ..relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..semantics.functions import FunctionRegistry

#: the order in which search explores operator families (cheap fixes first)
FAMILY_ORDER: dict[str, int] = {
    "rename_att": 0,
    "rename_rel": 1,
    "apply": 2,
    "promote": 3,
    "partition": 4,
    "merge": 5,
    "drop": 6,
    "deref": 7,
    "demote": 8,
    "product": 9,
}


class Operator(abc.ABC):
    """Base class for all operators of the language L."""

    #: short machine name used by the textual syntax (e.g. ``"promote"``)
    keyword: str = ""

    @cached_property
    def sort_key(self) -> tuple[int, str]:
        """``(family order, textual form)``: the order search proposes moves in.

        Rendered once per operator object; operators are immutable, and
        search reuses one object per move across expansions.  Search breaks
        f-ties on the textual form, ``sort_key[1]``.
        """
        return (FAMILY_ORDER.get(self.keyword, 99), str(self))

    @abc.abstractmethod
    def apply(self, db: Database, registry: "FunctionRegistry | None" = None) -> Database:
        """Apply this operator to *db*, returning a new database.

        *registry* is only consulted by the λ operator; structural operators
        ignore it.

        Raises:
            OperatorApplicationError: if the operator cannot be applied
                (missing relation/attribute, name collision, ...).
        """

    def is_applicable(self, db: Database) -> bool:
        """Cheap applicability check (default: try and catch).

        Subclasses override this with a non-constructive check; the default
        is correct but does the full work.
        """
        try:
            self.apply(db)
        except OperatorApplicationError:
            return False
        return True

    @abc.abstractmethod
    def __str__(self) -> str:
        """Parseable textual form (see :mod:`repro.fira.parser`)."""

    def to_unicode(self) -> str:
        """Paper-style rendering (``↑``, ``ρatt``, ...); defaults to str."""
        return str(self)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self}>"


class RelationOperator(Operator):
    """Base for operators that act on a single named relation."""

    relation: str

    def _target(self, db: Database):
        """Fetch the target relation, raising a precise application error."""
        rel = db._lookup(self.relation)
        if rel is None:
            raise OperatorApplicationError(
                f"{self.keyword}: no relation {self.relation!r} among "
                f"{list(db.relation_names)}"
            )
        return rel

    def is_applicable(self, db: Database) -> bool:
        return db.has_relation(self.relation)
