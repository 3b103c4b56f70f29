"""The warm-start store facade: one directory holding a mapping memo.

A :class:`WarmStartStore` is a directory::

    <store>/
        memo.jsonl          # mapping memo (repro.store.memo)

Any other file in the directory is ignored.  The search engine drives the
store through two verbs — :meth:`serve` (is a verified mapping already
known for this exact pair?) and :meth:`record` (persist a discovered
mapping).  Both are best-effort: storage failures bump
``resilience.store_*`` counters and the search proceeds cold, so pointing
``--store`` at a read-only or corrupted path costs warmth, never
correctness.  ``store_hit`` / ``store_miss`` / ``store_write`` trace
events make every decision observable.
"""

from __future__ import annotations

from pathlib import Path

from ..obs.events import STORE_HIT, STORE_MISS, STORE_WRITE
from ..resilience.runtime import resilience_warning
from .memo import DEFAULT_MAX_ENTRIES, MappingMemo

#: the memo's file name inside a store directory
MEMO_FILE = "memo.jsonl"


class WarmStartStore:
    """A directory-backed mapping memo shared across processes."""

    def __init__(
        self, path: str | Path, *, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        self.path = Path(path)
        self.memo = MappingMemo(self.path / MEMO_FILE, max_entries=max_entries)

    # -- mapping memo ----------------------------------------------------------

    def serve(
        self,
        source,
        target,
        *,
        algorithm=None,
        heuristic=None,
        k=None,
        registry=None,
        tracer=None,
    ):
        """A verified ``(expression, entry)`` for this pair, or ``None``."""
        served = self.memo.serve(
            source,
            target,
            registry=registry,
            algorithm=algorithm,
            heuristic=heuristic,
            k=k,
        )
        if served is not None:
            _, entry = served
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    STORE_HIT,
                    kind="memo",
                    fingerprint=entry["fingerprint"],
                    ops=entry.get("ops"),
                )
        elif tracer is not None and tracer.enabled:
            tracer.emit(STORE_MISS, kind="memo")
        return served

    def record(
        self,
        source,
        target,
        *,
        expression,
        algorithm,
        heuristic,
        k=None,
        signature="",
        states_examined=None,
        tracer=None,
    ) -> dict | None:
        """Persist one discovered mapping (best-effort)."""
        try:
            entry = self.memo.record(
                source,
                target,
                expression=expression,
                algorithm=algorithm,
                heuristic=heuristic,
                k=k,
                signature=signature,
                states_examined=states_examined,
            )
        except OSError as exc:
            resilience_warning("store_io_error", f"{self.path}: {exc!r}")
            return None
        if tracer is not None and tracer.enabled:
            tracer.emit(
                STORE_WRITE, kind="memo", fingerprint=entry["fingerprint"]
            )
        return entry

    # -- maintenance -----------------------------------------------------------

    def info(self) -> dict:
        """A JSON-ready snapshot for ``repro store info``."""
        return {"path": str(self.path), "memo": self.memo.info()}

    def gc(self) -> dict:
        """Compact the memo (see :meth:`MappingMemo.gc`)."""
        return {"memo": self.memo.gc()}


def resolve_store(store) -> WarmStartStore | None:
    """The store to use for one discovery.

    Accepts ``None`` (no store: the cold path), an existing
    :class:`WarmStartStore`, or a path.
    """
    if store is None:
        return None
    if isinstance(store, WarmStartStore):
        return store
    return WarmStartStore(store)


def open_store(path: str | Path, **kwargs) -> WarmStartStore:
    """Open (or lazily create) the store directory at *path*."""
    return WarmStartStore(path, **kwargs)
