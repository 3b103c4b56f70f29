"""Warm-start store: a cross-request mapping memo.

The persistence layer for discovery results:

* :mod:`repro.store.memo` — an append-only, corruption-tolerant JSONL memo
  mapping canonical pair fingerprints
  (:mod:`repro.relational.fingerprint`) to previously discovered
  :class:`~repro.fira.expression.MappingExpression`\\ s, re-verified
  against the live instances before being served;
* :class:`~repro.store.store.WarmStartStore` — the directory facade the
  search engine, CLI (``discover --store`` / ``repro store``), and
  fan-out workers drive.

There is no global switch: a discovery without a ``store=`` argument is
the cold path.

See ``docs/caching.md`` for the format, semantics, and counters.
"""

from .memo import DEFAULT_MAX_ENTRIES, STORE_VERSION, MappingMemo, config_signature
from .store import WarmStartStore, open_store, resolve_store

__all__ = [
    "DEFAULT_MAX_ENTRIES",
    "MappingMemo",
    "STORE_VERSION",
    "WarmStartStore",
    "config_signature",
    "open_store",
    "resolve_store",
]
