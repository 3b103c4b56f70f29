"""Immutable database values (named collections of relations).

A :class:`Database` is the unit of search in TUPELO: each search state is a
whole database reached by applying transformation operators to the source
critical instance.  Databases are canonical and hashable (relations sorted
by name), so the search engine can deduplicate and compare states directly.

Like :class:`~repro.relational.relation.Relation`, databases memoise their
derived views (attribute-name union, value set, value-text ids, TNF triples,
the TNF database string, ...): states are immutable, and both search
algorithms and every heuristic re-consult the same views for the same state
many times per run.  Views are stored once per database value and always
returned as immutable containers.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import NameCollisionError, SchemaError, UnknownRelationError
from .relation import Relation
from .types import Value


class Database:
    """An immutable set of relations keyed by relation name.

    Args:
        relations: the member relations; duplicate names are rejected.
    """

    __slots__ = ("_relations", "_hash", "_views")

    def __init__(self, relations: Iterable[Relation] = ()) -> None:
        by_name: dict[str, Relation] = {}
        for rel in relations:
            if not isinstance(rel, Relation):
                raise SchemaError(f"expected Relation, got {type(rel).__name__}")
            if rel.name in by_name:
                raise SchemaError(f"duplicate relation name {rel.name!r} in database")
            by_name[rel.name] = rel
        self._relations: tuple[Relation, ...] = tuple(
            by_name[name] for name in sorted(by_name)
        )
        self._hash = hash(self._relations)
        self._views: dict[object, object] = {}

    def __getstate__(self) -> dict:
        """Pickle only the member relations — never the memoised views.

        The parallel execution layer ships database states into worker
        processes; a search-warm state's view store (TNF triples, value
        texts, the database string, ...) can be far larger than the data.
        Views rebuild lazily in the receiving process.
        """
        return {"relations": self._relations}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["relations"])

    def cached_view(self, key: object, compute: Callable[[], object]) -> object:
        """Memoise a derived view of this (immutable) database.

        The first call under *key* evaluates *compute* and stores the result
        for the database's lifetime; later calls return the stored object.
        Stored views must be immutable (tuple/frozenset/str/int).  The TNF
        views in :mod:`repro.relational.tnf` cache through this hook.
        """
        try:
            return self._views[key]
        except KeyError:
            value = self._views[key] = compute()
            return value

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_dict(
        cls, data: Mapping[str, Sequence[Mapping[str, Value]]]
    ) -> "Database":
        """Build a database from ``{relation_name: [row_dict, ...]}``."""
        return cls(Relation.from_dicts(name, rows) for name, rows in data.items())

    @classmethod
    def single(cls, relation: Relation) -> "Database":
        """A database holding exactly one relation."""
        return cls([relation])

    # -- accessors ---------------------------------------------------------------

    @property
    def relations(self) -> tuple[Relation, ...]:
        """Member relations in canonical (name-sorted) order."""
        return self._relations

    @property
    def relation_names(self) -> tuple[str, ...]:
        """Relation names in sorted order."""
        return tuple([rel._name for rel in self._relations])

    def _lookup(self, name: str) -> Relation | None:
        """The member called *name*, or None.

        A scan of the name-sorted members: search states hold a handful of
        relations, and one name index per state would cost more to build
        than the scans it saves.
        """
        for rel in self._relations:
            if rel._name == name:
                return rel
        return None

    def relation(self, name: str) -> Relation:
        """The relation called *name* (raises :class:`UnknownRelationError`)."""
        rel = self._lookup(name)
        if rel is None:
            raise UnknownRelationError(name, self.relation_names)
        return rel

    def has_relation(self, name: str) -> bool:
        """Whether a relation called *name* exists."""
        return self._lookup(name) is not None

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __bool__(self) -> bool:
        return bool(self._relations)

    @property
    def total_tuples(self) -> int:
        """Total number of tuples across all relations."""
        return sum(rel.cardinality for rel in self._relations)

    # -- whole-database views (used heavily by heuristics) ------------------------

    def attribute_names(self) -> frozenset[str]:
        """Union of attribute names across relations (memoised)."""

        def compute() -> frozenset[str]:
            names: set[str] = set()
            for rel in self._relations:
                names.update(rel.attributes)
            return frozenset(names)

        return self.cached_view("attribute_names", compute)

    def value_set(self, include_null: bool = False) -> frozenset[Value]:
        """Union of data values across relations (memoised)."""

        def compute() -> frozenset[Value]:
            values: set[Value] = set()
            for rel in self._relations:
                values.update(rel.value_set(include_null=include_null))
            return frozenset(values)

        return self.cached_view(("value_set", include_null), compute)

    def value_text_ids(self) -> frozenset[int]:
        """Token ids of the text forms of all non-NULL data values (memoised).

        The search proposal rules compare this view against target token
        sets (e.g. demotions are proposed only when a metadata token is
        still missing from the state's data values), once per expansion,
        hence the inlined cache probe.
        """
        views = self._views
        hit = views.get("value_text_ids")
        if hit is not None:
            return hit
        ids: set[int] = set()
        for rel in self._relations:
            ids.update(rel.value_text_ids())
        value = views["value_text_ids"] = frozenset(ids)
        return value

    @property
    def has_nulls(self) -> bool:
        """Whether any relation contains a NULL value."""
        return any(rel.has_nulls for rel in self._relations)

    # -- derivations ---------------------------------------------------------------

    @classmethod
    def _from_sorted(cls, relations: tuple[Relation, ...]) -> "Database":
        """Construct from an already-validated, name-sorted relation tuple.

        Successor generation builds one database per child state; this
        skips the public constructor's re-validation, re-sort, and
        duplicate check, which the caller's invariants make redundant.
        """
        db = cls.__new__(cls)
        db._relations = relations
        db._hash = hash(relations)
        db._views = {}
        return db

    def _replacing(self, relation: Relation) -> "Database":
        """A copy with the same-named member replaced by *relation*.

        Unchecked: the caller has just fetched the member it replaces (an
        operator deriving its child state).  :meth:`with_relation` is the
        checked form.
        """
        old = self._relations
        if len(old) == 1:  # the dominant case in single-relation search
            return Database._from_sorted((relation,))
        name = relation._name
        return Database._from_sorted(
            tuple(relation if rel._name == name else rel for rel in old)
        )

    def with_relation(self, relation: Relation, replace: bool = True) -> "Database":
        """A copy with *relation* added (replacing any same-named member).

        With ``replace=False`` a same-named member raises
        :class:`NameCollisionError`.
        """
        if not isinstance(relation, Relation):
            raise SchemaError(
                f"expected Relation, got {type(relation).__name__}"
            )
        name = relation.name
        if self._lookup(name) is not None:
            if not replace:
                raise NameCollisionError(
                    f"relation {name!r} already exists in database"
                )
            return self._replacing(relation)
        names = [rel._name for rel in self._relations]
        idx = bisect_right(names, name)
        return Database._from_sorted(
            self._relations[:idx] + (relation,) + self._relations[idx:]
        )

    def with_relations(self, relations: Iterable[Relation]) -> "Database":
        """A copy with each of *relations* added/replaced in order."""
        db = self
        for rel in relations:
            db = db.with_relation(rel)
        return db

    def without_relation(self, name: str) -> "Database":
        """A copy with the named relation removed (raises if absent)."""
        self.relation(name)  # precise error if absent
        return Database._from_sorted(
            tuple(rel for rel in self._relations if rel.name != name)
        )

    def rename_relation(self, old: str, new: str) -> "Database":
        """A copy with relation *old* renamed to *new*."""
        rel = self.relation(old)
        if old == new:
            return self
        if self.has_relation(new):
            raise NameCollisionError(
                f"cannot rename relation {old!r} to {new!r}: name already in use"
            )
        return self.without_relation(old).with_relation(rel.renamed(new))

    # -- comparisons -----------------------------------------------------------------

    def contains(self, other: "Database") -> bool:
        """Database-level instance containment (the search goal test).

        True iff for every relation ``T`` of *other* there is a relation with
        the same name here whose projection onto ``T``'s attributes contains
        all of ``T``'s tuples — i.e. this database is a "structurally
        identical superset" of *other* in the sense of the paper's §2.3.
        """
        for target_rel in other:
            ours = self._lookup(target_rel._name)
            if ours is None or not ours.contains(target_rel):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        return self._hash == other._hash and self._relations == other._relations

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{rel.name}({rel.arity}x{rel.cardinality})" for rel in self._relations
        )
        return f"Database({inner})"

    def to_text(self) -> str:
        """Human-readable rendering of every relation."""
        return "\n\n".join(rel.to_text() for rel in self._relations)
