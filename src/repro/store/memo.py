"""Disk-backed mapping memo: fingerprint -> previously discovered mapping.

The memo is an **append-only JSONL file** (via :mod:`repro.serialize`)
rather than sqlite: appends from concurrent processes interleave at line
granularity on every platform we target, a torn tail line is skipped
instead of poisoning the file, and the whole store stays greppable.  The
first line is a header stamping :data:`STORE_VERSION`; every later line is
one ``mapping`` entry keyed by the exact pair fingerprint
(:func:`repro.relational.fingerprint.pair_fingerprint`).  Later entries
for the same key win, so "update" is just another append and compaction
(:meth:`MappingMemo.gc`) is optional hygiene, not correctness.

**Nothing read from disk is trusted.**  A served expression is re-parsed
and re-verified against the *current* instance pair
(``expression.apply(source).contains(target)``) before it is returned —
this one check subsumes fingerprint collisions, stale entries from older
code, and hand-edited files.  Every degraded path (unparseable line,
wrong version, failed verification, I/O error) bumps a
``resilience.store_*`` counter and falls back to a cold search; the memo
never raises into a discovery.

Each entry also records :func:`config_signature`, a hash of the config
knobs that change what a discovered mapping *means*, so an entry can be
traced back to the search space it came from.
"""

from __future__ import annotations

import hashlib
import os
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from ..errors import TupeloError
from ..fira.expression import MappingExpression
from ..fira.parser import parse_expression
from ..relational.database import Database
from ..relational.fingerprint import pair_fingerprint, pair_shape_fingerprint
from ..resilience.runtime import resilience_warning, retry_call
from ..search.config import SearchConfig
from ..semantics.correspondence import encode_correspondence
from ..semantics.functions import FunctionRegistry, builtin_registry
from ..serialize import json_dumps_compact, json_loads

#: bump when the entry layout changes incompatibly; mismatched files are
#: treated as cold (never migrated in place, never an error)
STORE_VERSION = 1

#: default bound on distinct fingerprints kept across compactions
DEFAULT_MAX_ENTRIES = 1024

#: per fingerprint, how many request variants (algorithm/heuristic/k) are
#: kept by compaction — newest first
_VARIANTS_PER_KEY = 4


def config_signature(config: SearchConfig, correspondences=()) -> str:
    """Hash of the config knobs that change what a discovered mapping means."""
    payload = {
        "enabled_operators": sorted(config.enabled_operators),
        "break_symmetry": config.break_symmetry,
        "prune_targets": config.prune_targets,
        "max_depth": config.max_depth,
        "correspondences": sorted(
            encode_correspondence(corr) for corr in correspondences
        ),
    }
    return hashlib.sha256(
        ("tupelo-cfg-v1" + json_dumps_compact(payload)).encode("utf-8")
    ).hexdigest()


def _request_key(entry: Mapping) -> tuple:
    """The (algorithm, heuristic, k) variant an entry was discovered under."""
    k = entry.get("k")
    return (
        entry.get("algorithm"),
        entry.get("heuristic"),
        float(k) if isinstance(k, (int, float)) and not isinstance(k, bool) else None,
    )


class MappingMemo:
    """One append-only memo file mapping pair fingerprints to mappings.

    The in-memory index (`fingerprint -> newest-first entry list`) is
    rebuilt lazily whenever the file's ``(mtime_ns, size)`` stamp changes,
    so concurrent writers on the same path are picked up without any
    locking — the worst case is serving a verified-but-older entry.
    """

    def __init__(
        self, path: str | Path, max_entries: int = DEFAULT_MAX_ENTRIES
    ) -> None:
        self.path = Path(path)
        self.max_entries = max_entries
        #: fingerprint -> entries, newest first (recency = key insertion order)
        self._by_fp: dict[str, list[dict]] = {}
        self._stamp: tuple[int, int] | None = None
        #: lines the last load skipped as corrupt (surfaced by ``info``)
        self.corrupt_lines = 0
        #: whether the last load hit a version-mismatched header
        self.version_mismatch = False

    # -- loading ---------------------------------------------------------------

    def _stat_stamp(self) -> tuple[int, int] | None:
        try:
            st = self.path.stat()
        except OSError:
            return None
        return (st.st_mtime_ns, st.st_size)

    def refresh(self, force: bool = False) -> None:
        """Reload the index if the file changed on disk (cheap stat probe)."""
        stamp = self._stat_stamp()
        if not force and stamp == self._stamp:
            return
        self._stamp = stamp
        self._by_fp = {}
        self.corrupt_lines = 0
        self.version_mismatch = False
        if stamp is None:
            return
        try:
            text = retry_call(
                lambda: self.path.read_text(encoding="utf-8"),
                site="store.memo_read",
            )
        except OSError as exc:
            resilience_warning("store_io_error", f"{self.path}: {exc!r}")
            return
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json_loads(line)
            except ValueError:
                self.corrupt_lines += 1
                resilience_warning(
                    "store_corrupt_entry", f"{self.path}:{line_no}"
                )
                continue
            if not isinstance(entry, dict):
                self.corrupt_lines += 1
                resilience_warning(
                    "store_corrupt_entry", f"{self.path}:{line_no}"
                )
                continue
            if entry.get("kind") == "header":
                if entry.get("version") != STORE_VERSION:
                    # A future (or ancient) format: serve nothing from it,
                    # but keep appends working — compaction rewrites the
                    # header and reclaims the file.
                    self.version_mismatch = True
                    self._by_fp = {}
                    resilience_warning(
                        "store_version_mismatch",
                        f"{self.path}: header version {entry.get('version')!r}",
                    )
                    return
                continue
            if (
                entry.get("kind") != "mapping"
                or not isinstance(entry.get("fingerprint"), str)
                or not isinstance(entry.get("expression"), str)
            ):
                self.corrupt_lines += 1
                resilience_warning(
                    "store_corrupt_entry", f"{self.path}:{line_no}"
                )
                continue
            fp = entry["fingerprint"]
            bucket = self._by_fp.get(fp)
            if bucket is None:
                self._by_fp[fp] = [entry]
            else:
                bucket.insert(0, entry)
            # recency for the LRU bound: newest-touched key moves last
            self._by_fp[fp] = self._by_fp.pop(fp)

    # -- writing ---------------------------------------------------------------

    def _header_line(self) -> str:
        return json_dumps_compact(
            {"kind": "header", "store": "tupelo-memo", "version": STORE_VERSION}
        )

    def _append(self, entry: dict) -> None:
        line = json_dumps_compact(entry)

        def write() -> None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            stamp = self._stat_stamp()
            with self.path.open("a", encoding="utf-8") as fh:
                if stamp is None or stamp[1] == 0:
                    fh.write(self._header_line() + "\n")
                fh.write(line + "\n")

        retry_call(write, site="store.memo_append")

    def record(
        self,
        source: Database,
        target: Database,
        *,
        expression: MappingExpression,
        algorithm: str,
        heuristic: str,
        k: float | None = None,
        signature: str = "",
        states_examined: int | None = None,
    ) -> dict:
        """Append one discovered mapping; returns the entry written.

        Compacts in place when the live index outgrows ``max_entries``
        (append-only files otherwise grow without bound under churn).
        """
        self.refresh()
        entry = {
            "kind": "mapping",
            "version": STORE_VERSION,
            "fingerprint": pair_fingerprint(source, target),
            "shape": pair_shape_fingerprint(source, target),
            "algorithm": algorithm,
            "heuristic": heuristic,
            "k": k,
            "signature": signature,
            "expression": str(expression),
            "ops": len(expression.operators),
        }
        if states_examined is not None:
            entry["states_examined"] = states_examined
        self._append(entry)
        fp = entry["fingerprint"]
        bucket = self._by_fp.pop(fp, [])
        bucket.insert(0, entry)
        self._by_fp[fp] = bucket
        self._stamp = self._stat_stamp()
        if len(self._by_fp) > self.max_entries:
            self.gc()
        return entry

    # -- serving ---------------------------------------------------------------

    def _candidates(
        self,
        fp: str,
        algorithm: str | None,
        heuristic: str | None,
        k: float | None,
    ) -> Iterator[dict]:
        """Entries for *fp*, exact request-variant matches first."""
        bucket = self._by_fp.get(fp)
        if not bucket:
            return
        want = (algorithm, heuristic, k if k is None else float(k))
        exact = [e for e in bucket if _request_key(e) == want]
        rest = [e for e in bucket if _request_key(e) != want]
        yield from exact
        yield from rest

    def serve(
        self,
        source: Database,
        target: Database,
        *,
        registry: FunctionRegistry | None = None,
        algorithm: str | None = None,
        heuristic: str | None = None,
        k: float | None = None,
    ) -> tuple[MappingExpression, dict] | None:
        """A stored mapping *verified against this very pair*, or ``None``.

        Entries recorded under the requested ``(algorithm, heuristic, k)``
        are preferred (and, when served, reproduce the cold search's result
        bit for bit — the memo stored exactly what that search found); any
        other verified entry for the fingerprint is an acceptable fallback,
        since verification — not provenance — is what makes an answer
        correct.  Each candidate is parsed and applied; any failure (stale
        operator vocabulary, a fingerprint collision, hand-edited entries)
        degrades to the next candidate and ultimately to ``None``, never
        to an exception.
        """
        self.refresh()
        fp = pair_fingerprint(source, target)
        reg = registry if registry is not None else builtin_registry()
        for entry in self._candidates(fp, algorithm, heuristic, k):
            try:
                expression = parse_expression(entry["expression"])
                verified = expression.apply(source, reg).contains(target)
            except (TupeloError, ValueError, KeyError, TypeError) as exc:
                resilience_warning(
                    "store_stale_entry", f"{self.path}: {fp[:12]} {exc!r}"
                )
                continue
            if not verified:
                # Wrong answer for this pair: a hash collision or a stale
                # entry whose semantics drifted.  Either way: cold search.
                resilience_warning(
                    "store_stale_entry", f"{self.path}: {fp[:12]} unverified"
                )
                continue
            return expression, entry
        return None

    # -- maintenance -----------------------------------------------------------

    def gc(self, max_entries: int | None = None) -> dict:
        """Compact the file: newest entries per key, LRU-bounded keys.

        Rewrites atomically (temp file + ``os.replace``) so concurrent
        readers see either the old or the new file, never a torn one.
        Returns ``{"kept", "dropped", "bytes_before", "bytes_after"}``.
        """
        self.refresh(force=True)
        bound = self.max_entries if max_entries is None else max_entries
        stamp = self._stat_stamp()
        bytes_before = stamp[1] if stamp is not None else 0
        total = sum(len(bucket) for bucket in self._by_fp.values())

        # keys are in recency order (oldest first); keep the newest *bound*
        keys = list(self._by_fp)
        kept_keys = keys[-bound:] if bound >= 0 else keys
        lines = [self._header_line()]
        kept = 0
        for fp in kept_keys:
            for entry in self._by_fp[fp][:_VARIANTS_PER_KEY]:
                lines.append(json_dumps_compact(entry))
                kept += 1

        def rewrite() -> None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_name(
                f".{self.path.name}.{os.getpid()}.tmp"
            )
            tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")
            os.replace(tmp, self.path)

        try:
            retry_call(rewrite, site="store.memo_gc")
        except OSError as exc:
            resilience_warning("store_io_error", f"{self.path}: gc {exc!r}")
            return {
                "kept": total,
                "dropped": 0,
                "bytes_before": bytes_before,
                "bytes_after": bytes_before,
            }
        self.refresh(force=True)
        stamp = self._stat_stamp()
        return {
            "kept": kept,
            "dropped": total - kept,
            "bytes_before": bytes_before,
            "bytes_after": stamp[1] if stamp is not None else 0,
        }

    def info(self) -> dict:
        """A JSON-ready snapshot for ``repro store info``."""
        self.refresh()
        stamp = self._stat_stamp()
        return {
            "path": str(self.path),
            "exists": stamp is not None,
            "bytes": stamp[1] if stamp is not None else 0,
            "version": STORE_VERSION,
            "fingerprints": len(self._by_fp),
            "entries": sum(len(b) for b in self._by_fp.values()),
            "corrupt_lines": self.corrupt_lines,
            "version_mismatch": self.version_mismatch,
            "max_entries": self.max_entries,
        }

    def fingerprints(self) -> Sequence[str]:
        """The indexed fingerprints, oldest-recency first (for tests)."""
        self.refresh()
        return tuple(self._by_fp)
