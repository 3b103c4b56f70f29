"""Warm-start store: cross-request mapping memo + shared search caches.

The persistence and sharing layer for discovery results (ROADMAP item 1's
cross-request cache, landed ahead of the server mode that will sit on it):

* :mod:`repro.store.memo` — an append-only, corruption-tolerant JSONL memo
  mapping canonical pair fingerprints
  (:mod:`repro.relational.fingerprint`) to previously discovered
  :class:`~repro.fira.expression.MappingExpression`\\ s, re-verified
  against the live instances before being served;
* :mod:`repro.store.warm` — per-problem spills of the transposition /
  goal / heuristic memo tables, merged atomically so portfolio arms and
  fanout workers warm each other through one shared file;
* :class:`~repro.store.store.WarmStartStore` — the directory facade the
  search engine, CLI (``discover --store`` / ``repro store``), and
  parallel layers drive.

There is no global switch: a discovery without a ``store=`` argument is
the cold path.

See ``docs/caching.md`` for formats, semantics, and knobs.
"""

from .memo import DEFAULT_MAX_ENTRIES, STORE_VERSION, MappingMemo
from .store import (
    DEFAULT_MAX_SPILLS,
    WarmStartStore,
    open_store,
    resolve_store,
)
from .warm import (
    DEFAULT_MAX_SPILL_STATES,
    SPILL_VERSION,
    config_signature,
    merge_tables,
    problem_signature,
    read_spill,
    write_spill,
)

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "DEFAULT_MAX_SPILLS",
    "DEFAULT_MAX_SPILL_STATES",
    "MappingMemo",
    "SPILL_VERSION",
    "STORE_VERSION",
    "WarmStartStore",
    "config_signature",
    "merge_tables",
    "open_store",
    "problem_signature",
    "read_spill",
    "resolve_store",
    "write_spill",
]
