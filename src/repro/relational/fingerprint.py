"""Canonical content fingerprints for instances and instance pairs.

The warm-start store (:mod:`repro.store`) keys persisted discovery results
by the *content* of a (source, target) critical-instance pair, so repeated
requests for the same pair hit a memo instead of a search.  That key must
be stable where Python object identity is not:

* **Order-insensitive** — relations, attributes, and rows are hashed in
  their canonical sorted order (the order :class:`~repro.relational
  .relation.Relation` and :class:`~repro.relational.database.Database`
  already store), so construction order never changes the digest.
* **Intern-pool independent** — digests are computed over *values* (typed
  renderings), never over token ids.  Token ids are process-local (see
  :mod:`repro.relational.intern`); two processes interning the same pair in
  different orders produce the same fingerprint.
* **Type-faithful** — cells hash their :func:`~repro.relational.types
  .value_sort_key` rendering (``"int:1"`` vs ``"str:'1'"``), so instances
  that differ only in cell types do not collide the way their text
  renderings would.

:func:`instance_digest` / :func:`pair_fingerprint` hash the content
*including* relation and attribute names.  The pair fingerprint is the
memo's serving key: a stored mapping expression names schema elements, so
it can only be replayed against an instance whose names match.

All digests are hex SHA-256 strings and are memoised per database value
through ``cached_view`` (immutable inputs make them pure).
"""

from __future__ import annotations

import hashlib

from .database import Database
from .relation import Relation
from .types import value_sort_key

#: domain-separation prefix stamped into every digest (bump on format change)
_DIGEST_DOMAIN = b"tupelo-fp-v1"

#: field separator inside one hashed record (never appears in renderings)
_SEP = b"\x1f"

#: record separator between hashed records
_END = b"\x1e"


def _cell_bytes(value: object) -> bytes:
    """The canonical typed rendering of one cell.

    ``value_sort_key`` already distinguishes NULL from every typed value
    and types from each other (``"int:1"`` vs ``"str:'1'"``), and it is
    what row ordering is defined over, so hashing it keeps the digest
    aligned with the canonical row order.
    """
    rank, text = value_sort_key(value)
    return str(rank).encode("utf-8") + _SEP + text.encode("utf-8")


def relation_digest(rel: Relation) -> str:
    """Exact content digest of one relation (name + schema + rows).

    Rows are hashed in canonical sorted order; the result is memoised on
    the relation value.
    """

    def compute() -> str:
        h = hashlib.sha256(_DIGEST_DOMAIN)
        h.update(b"relation" + _SEP + rel.name.encode("utf-8") + _END)
        for attr in rel.attributes:
            h.update(attr.encode("utf-8") + _SEP)
        h.update(_END)
        for row in rel.sorted_rows_view():
            for cell in row:
                h.update(_cell_bytes(cell) + _SEP)
            h.update(_END)
        return h.hexdigest()

    return rel.cached_view("content_digest", compute)


def instance_digest(db: Database) -> str:
    """Exact content digest of a whole instance (memoised on the value).

    Relations contribute in name order (the canonical storage order), so
    any construction order of an equal database yields the same digest.
    """

    def compute() -> str:
        h = hashlib.sha256(_DIGEST_DOMAIN + b"instance")
        for rel in db:
            h.update(relation_digest(rel).encode("utf-8") + _END)
        return h.hexdigest()

    return db.cached_view("instance_digest", compute)


def pair_fingerprint(source: Database, target: Database) -> str:
    """The exact fingerprint of a (source, target) pair — the memo key."""
    h = hashlib.sha256(_DIGEST_DOMAIN + b"pair")
    h.update(instance_digest(source).encode("utf-8") + _END)
    h.update(instance_digest(target).encode("utf-8") + _END)
    return h.hexdigest()
