"""The warm-start store facade: one directory, two kinds of warmth.

A :class:`WarmStartStore` is a directory::

    <store>/
        memo.jsonl          # mapping memo (repro.store.memo)
        warm/<sig>.json     # per-problem search-state spills (repro.store.warm)

The search engine drives it through four verbs — :meth:`serve` (is a
verified mapping already known for this exact pair?), :meth:`preseed`
(warm a fresh problem's memo tables from a shared spill), :meth:`record`
(persist a discovered mapping), :meth:`export` (spill this run's tables
for the next process).  All four are best-effort: storage failures bump
``resilience.store_*`` counters and the search proceeds cold, so pointing
``--store`` at a read-only or corrupted path costs warmth, never
correctness.  ``store.*`` metrics and ``store_hit`` / ``store_miss`` /
``store_write`` trace events make every decision observable.
"""

from __future__ import annotations

from pathlib import Path

from ..obs.events import STORE_HIT, STORE_MISS, STORE_WRITE
from ..resilience.runtime import resilience_warning
from .memo import DEFAULT_MAX_ENTRIES, MappingMemo
from .warm import (
    DEFAULT_MAX_SPILL_STATES,
    problem_signature,
    read_spill,
    write_spill,
)

#: default bound on spill files kept per store (oldest dropped by gc)
DEFAULT_MAX_SPILLS = 256

#: file names inside a store directory
MEMO_FILE = "memo.jsonl"
WARM_DIR = "warm"


class WarmStartStore:
    """A directory-backed memo + spill store shared across processes."""

    def __init__(
        self,
        path: str | Path,
        *,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_spills: int = DEFAULT_MAX_SPILLS,
        max_spill_states: int = DEFAULT_MAX_SPILL_STATES,
    ) -> None:
        self.path = Path(path)
        self.max_spills = max_spills
        self.max_spill_states = max_spill_states
        self.memo = MappingMemo(self.path / MEMO_FILE, max_entries=max_entries)
        # Post-preseed table-size snapshots by problem signature; consumed
        # by export() to skip re-spilling when a search learned nothing.
        self._preseed_sizes: dict[str, tuple[int, int, int]] = {}

    def spill_path(self, signature: str) -> Path:
        return self.path / WARM_DIR / f"{signature}.json"

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
        metrics=None,
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
            if metrics is not None:
                metrics.counter("store.memo_hits").inc()
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    STORE_HIT,
                    kind="memo",
                    fingerprint=entry["fingerprint"],
                    ops=entry.get("ops"),
                )
        else:
            if metrics is not None:
                metrics.counter("store.memo_misses").inc()
            if tracer is not None and tracer.enabled:
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
        metrics=None,
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
        if metrics is not None:
            metrics.counter("store.memo_writes").inc()
        if tracer is not None and tracer.enabled:
            tracer.emit(
                STORE_WRITE, kind="memo", fingerprint=entry["fingerprint"]
            )
        return entry

    # -- warm spills -----------------------------------------------------------

    def preseed(self, problem, heuristic=None, metrics=None, tracer=None) -> int:
        """Warm *problem* (and *heuristic*) from the shared spill; entries.

        A missing spill is a quiet miss; a corrupt one clears any partial
        warmth and degrades to cold with ``resilience.store_torn_spill``.
        """
        signature = problem_signature(problem)
        tables = read_spill(self.spill_path(signature), signature)
        loaded = 0
        if tables is not None:
            try:
                loaded = problem.preseed_warm_tables(tables, heuristic)
            except Exception as exc:  # any malformed table degrades cold
                problem.clear_caches()
                if heuristic is not None:
                    heuristic.clear_cache()
                loaded = 0
                resilience_warning(
                    "store_torn_spill",
                    f"{self.spill_path(signature)}: preseed {exc!r}",
                )
        if loaded:
            # Snapshot the warmed table sizes so export() can detect a
            # search that never left them.  Only with unbounded caches:
            # under a capacity bound, eviction keeps sizes pinned while
            # contents churn, so the detector would skip real updates.
            if problem.config.cache_capacity is None:
                self._preseed_sizes[signature] = problem.warm_table_sizes(
                    heuristic
                )
            if metrics is not None:
                metrics.counter("store.spill_hits").inc()
                metrics.counter("store.spill_entries_loaded").inc(loaded)
            if tracer is not None and tracer.enabled:
                tracer.emit(STORE_HIT, kind="spill", entries=loaded)
        else:
            if metrics is not None:
                metrics.counter("store.spill_misses").inc()
            if tracer is not None and tracer.enabled:
                tracer.emit(STORE_MISS, kind="spill")
        return loaded

    def export(self, problem, heuristic=None, metrics=None, tracer=None) -> bool:
        """Spill *problem*'s memo tables for other processes (best-effort).

        Runs after every search — found, budget-cut, or deadline-cut: a
        partial table is exactly as valid as a complete one, and cut runs
        are the ones whose warmth the retry needs most.  The steady-state
        exception: when the memo tables are exactly the size the preseed
        left them (unbounded caches only), the search ran entirely inside
        the spill it loaded, so re-encoding and merging an identical spill
        is skipped (``store.spill_skips``).
        """
        signature = problem_signature(problem)
        mark = self._preseed_sizes.pop(signature, None)
        if mark is not None and mark == problem.warm_table_sizes(heuristic):
            if metrics is not None:
                metrics.counter("store.spill_skips").inc()
            return False
        tables = problem.export_warm_tables(
            heuristic, max_states=self.max_spill_states
        )
        if not tables["states"]:
            return False
        ok = write_spill(
            self.spill_path(signature),
            signature,
            tables,
            max_states=self.max_spill_states,
        )
        if ok:
            if metrics is not None:
                metrics.counter("store.spill_writes").inc()
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    STORE_WRITE, kind="spill", states=len(tables["states"])
                )
        return ok

    # -- maintenance -----------------------------------------------------------

    def _spill_files(self) -> list[Path]:
        warm = self.path / WARM_DIR
        if not warm.is_dir():
            return []
        return sorted(warm.glob("*.json"))

    def info(self) -> dict:
        """A JSON-ready snapshot for ``repro store info``."""
        spills = self._spill_files()
        spill_bytes = 0
        for spill in spills:
            try:
                spill_bytes += spill.stat().st_size
            except OSError:
                continue
        payload = {
            "path": str(self.path),
            "memo": self.memo.info(),
            "spills": len(spills),
            "spill_bytes": spill_bytes,
            "max_spills": self.max_spills,
            "max_spill_states": self.max_spill_states,
        }
        return payload

    def gc(self) -> dict:
        """Compact the memo and drop the oldest spills over ``max_spills``."""
        summary = {"memo": self.memo.gc()}
        spills = self._spill_files()
        dropped = 0
        if len(spills) > self.max_spills:
            by_age = sorted(
                spills, key=lambda p: (p.stat().st_mtime_ns, p.name)
            )
            for spill in by_age[: len(spills) - self.max_spills]:
                try:
                    spill.unlink()
                    dropped += 1
                except OSError as exc:
                    resilience_warning(
                        "store_io_error", f"{spill}: gc {exc!r}"
                    )
        summary["spills_dropped"] = dropped
        summary["spills_kept"] = len(spills) - dropped
        return summary


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
