"""Tuple Normal Form (TNF) encoding of databases.

TNF (Litwin, Ketabchi & Krishnamurthy, 1991) encodes an entire database in a
single table of fixed schema ``(TID, REL, ATT, VALUE)``: one row per cell,
where TID identifies the originating tuple, REL its relation name, ATT the
attribute name, and VALUE the cell value.  TUPELO uses TNF as its internal
representation: the paper's heuristics (§3) are all defined over TNF
projections, the string view, and the (REL, ATT, VALUE) triples provided
here.  The set and term-vector heuristics read the same quantities off
per-relation token views (:mod:`repro.heuristics.setbased`,
:mod:`repro.heuristics.vector`); only the string view is built from text.

NULL cells are not emitted: a promoted/ragged tuple contributes only its
non-NULL cells, matching the "piecemeal" population described in the paper's
Example 4.
"""

from __future__ import annotations

from typing import Iterator

from ..errors import TNFError
from .database import Database
from .intern import NULL_TOKEN, TEXTS, VALUES
from .relation import Relation
from .types import Value

TNF_ATTRIBUTES = ("TID", "REL", "ATT", "VALUE")

TNFCell = tuple[str, str, str, Value]
"""One TNF row: (tid, relation name, attribute name, value)."""


def iter_tnf_cells(db: Database) -> Iterator[TNFCell]:
    """Yield the TNF cells of *db* in deterministic order.

    Tuple identifiers are ``t1, t2, ...`` assigned over relations in name
    order and rows in canonical sorted order, so the encoding of equal
    databases is identical.
    """
    return iter(tnf_cells(db))


def tnf_cells(db: Database) -> tuple[TNFCell, ...]:
    """The TNF cells of *db* in deterministic order (memoised on *db*)."""

    def compute() -> tuple[TNFCell, ...]:
        cells: list[TNFCell] = []
        tid_counter = 0
        values = VALUES
        for rel in db:
            attributes = rel.attributes
            name = rel.name
            for trow in rel.sorted_token_rows():
                tid_counter += 1
                tid = f"t{tid_counter}"
                for attr, token in zip(attributes, trow):
                    if token == NULL_TOKEN:
                        continue
                    cells.append((tid, name, attr, values[token]))
        return tuple(cells)

    return db.cached_view("tnf_cells", compute)


def tnf_encode(db: Database, table_name: str = "TNF") -> Relation:
    """Encode *db* as a single TNF relation.

    Example 4 of the paper shows this encoding for the FlightsC database.
    """
    return Relation(table_name, TNF_ATTRIBUTES, tnf_cells(db))


def tnf_decode(tnf: Relation) -> Database:
    """Decode a TNF relation produced by :func:`tnf_encode` back to a database.

    Raises:
        TNFError: if the relation does not have the TNF schema, a (tid, rel)
            group assigns two values to one attribute, or the same tid is
            used under two relation names.
    """
    if tnf.attribute_set != frozenset(TNF_ATTRIBUTES):
        raise TNFError(
            f"relation {tnf.name!r} does not have TNF schema {TNF_ATTRIBUTES}, "
            f"got {tuple(tnf.attributes)}"
        )
    tid_rel: dict[str, str] = {}
    grouped: dict[tuple[str, str], dict[str, Value]] = {}
    for row in tnf.sorted_rows():
        cell = dict(zip(tnf.attributes, row))
        tid = cell["TID"]
        rel_name = cell["REL"]
        att = cell["ATT"]
        value = cell["VALUE"]
        if not isinstance(tid, str) or not isinstance(rel_name, str) or not isinstance(att, str):
            raise TNFError(f"TNF row {row!r} has non-string TID/REL/ATT")
        if tid in tid_rel and tid_rel[tid] != rel_name:
            raise TNFError(
                f"tuple id {tid!r} appears under relations "
                f"{tid_rel[tid]!r} and {rel_name!r}"
            )
        tid_rel[tid] = rel_name
        group = grouped.setdefault((rel_name, tid), {})
        if att in group:
            raise TNFError(
                f"tuple id {tid!r} assigns two values to attribute {att!r} "
                f"of relation {rel_name!r}"
            )
        group[att] = value

    rows_by_relation: dict[str, list[dict[str, Value]]] = {}
    for (rel_name, _tid), row_dict in sorted(grouped.items()):
        rows_by_relation.setdefault(rel_name, []).append(row_dict)
    return Database(
        Relation.from_dicts(rel_name, rows)
        for rel_name, rows in rows_by_relation.items()
    )


def tnf_triples(db: Database) -> tuple[tuple[str, str, str], ...]:
    """The (REL, ATT, VALUE) triples of *db*'s TNF, values as text.

    Each database is a bag of (relation, attribute, value) triples, one per
    non-NULL cell, in no particular order: rows are walked unsorted, and
    readers that need an order (:func:`database_string`) sort what they
    build.  Memoised on *db*.
    """

    def compute() -> tuple[tuple[str, str, str], ...]:
        texts = TEXTS
        triples: list[tuple[str, str, str]] = []
        for rel in db:
            attributes = rel.attributes
            name = rel.name
            for trow in rel.token_rows:
                for attr, token in zip(attributes, trow):
                    if token == NULL_TOKEN:
                        continue
                    triples.append((name, attr, texts[token]))
        return tuple(triples)

    return db.cached_view("tnf_triples", compute)


def database_string(db: Database) -> str:
    """The string view of §3 ("Databases as Strings").

    Each TNF row contributes the concatenation REL + ATT + VALUE; the row
    strings are sorted lexicographically (with repetitions) and concatenated.
    Memoised on *db*.
    """
    return db.cached_view(
        "database_string",
        lambda: "".join(
            sorted(rel + att + value for rel, att, value in tnf_triples(db))
        ),
    )


def tnf_projections(
    db: Database,
) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """The (π_REL, π_ATT, π_VALUE) projections of *db*'s TNF as text sets.

    These drive the set-based heuristics h1/h2/h3.  Memoised on *db*.
    """

    def compute() -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        rels: set[str] = set()
        atts: set[str] = set()
        values: set[str] = set()
        for rel, att, value in tnf_triples(db):
            rels.add(rel)
            atts.add(att)
            values.add(value)
        return frozenset(rels), frozenset(atts), frozenset(values)

    return db.cached_view("tnf_projections", compute)
