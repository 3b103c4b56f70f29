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

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".memo": ("DEFAULT_MAX_ENTRIES", "MappingMemo", "STORE_VERSION"),
        ".store": ("WarmStartStore", "open_store", "resolve_store"),
    },
)
