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
from typing import TYPE_CHECKING

from ..errors import OperatorApplicationError
from ..relational.database import Database

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..semantics.functions import FunctionRegistry


class Operator(abc.ABC):
    """Base class for all operators of the language L."""

    #: short machine name used by the textual syntax (e.g. ``"promote"``)
    keyword: str = ""

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
        if not db.has_relation(self.relation):
            raise OperatorApplicationError(
                f"{self.keyword}: no relation {self.relation!r} in {db!r}"
            )
        return db.relation(self.relation)

    def is_applicable(self, db: Database) -> bool:
        return db.has_relation(self.relation)
