"""Cross-process trace aggregation: many JSONL traces, one timeline.

A parallel run leaves one trace file per process — the experiment fan-out
writes per-worker ``<label>.w{n}.jsonl`` files.  Each file's timestamps are
``perf_counter`` offsets from *that process's* tracer arming, so they are
not comparable across files on their own; the ``wall``/``pid`` anchors the
:class:`~repro.obs.sinks.JsonlSink` stamps into every ``trace_header``
supply the common clock.

:func:`merge_traces` rebases every event onto the earliest source's
timeline, tags it with its source label (``src``), interleaves all sources
in causal (wall-clock) order, and re-sequences the result — producing one
stream that :func:`~repro.obs.report.replay_counters`,
:func:`~repro.obs.report.run_profile`, and
:func:`~repro.obs.spans.build_span_tree` consume unchanged.
:func:`merged_counters` sums the per-source replayed counters, so a
``workers=2`` sweep aggregates to exactly the counters of the serial
sweep.  ``repro trace --merge`` is the CLI face of this module.

Worker files may be torn mid-line when a process was killed (a crashed
worker): :func:`load_trace_lenient` tolerates a truncated
*final* line, recording it in :attr:`TraceSource.torn` instead of raising.
Corruption anywhere else still fails loudly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Sequence

from ..errors import TraceFormatError
from ..serialize import json_dumps_compact, json_loads
from .events import SCHEMA_VERSION, TRACE_HEADER, validate_event
from .report import replay_counters


@dataclass
class TraceSource:
    """One loaded trace file: its header anchors, events, and label."""

    path: str
    label: str
    header: dict
    events: list[dict]
    torn: bool = False

    @property
    def wall(self) -> float:
        """Wall-clock anchor of this source's t=0 (0.0 for old traces)."""
        return float(self.header.get("wall", 0.0))


@dataclass
class MergedTrace:
    """The merged timeline plus per-source bookkeeping."""

    events: list[dict]
    sources: list[TraceSource]
    wall_base: float = 0.0

    @property
    def torn_sources(self) -> list[str]:
        return [source.label for source in self.sources if source.torn]


def load_trace_lenient(path: str | Path) -> TraceSource:
    """Load one JSONL trace, tolerating a torn final line only.

    A killed worker can leave its last line half-written; that line is
    dropped and the source is marked ``torn``.  A bad line anywhere else,
    a missing header, or a schema-version mismatch raises
    :class:`~repro.errors.TraceFormatError` exactly like
    :func:`~repro.obs.tracer.load_trace`.
    """
    path = Path(path)
    records: list[dict] = []
    torn = False
    with path.open("r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json_loads(line))
        except ValueError as err:
            if lineno == len(lines):  # torn final line: killed mid-write
                torn = True
                break
            raise TraceFormatError(
                f"{path}:{lineno}: not valid JSON: {err}"
            ) from err
    if not records or records[0].get("event") != TRACE_HEADER:
        raise TraceFormatError(
            f"{path}: missing trace_header record (not a repro trace?)"
        )
    header = records[0]
    version = header.get("schema_version")
    if version != SCHEMA_VERSION:
        raise TraceFormatError(
            f"{path}: trace schema version {version!r} unsupported "
            f"(this build reads version {SCHEMA_VERSION})"
        )
    return TraceSource(
        path=str(path),
        label=path.stem,
        header=header,
        events=records[1:],
        torn=torn,
    )


def merge_traces(paths: Iterable[str | Path]) -> MergedTrace:
    """Merge many per-process traces into one causally-ordered timeline.

    Every event gains a ``src`` label (the source file's stem) and its
    timestamp is rebased to seconds since the *earliest* source's tracer
    armed, using the wall-clock header anchors.  Events are interleaved in
    rebased-time order (ties broken by source order then original seq) and
    re-sequenced 1..N, so the merged stream satisfies
    :func:`~repro.obs.events.validate_events` again.

    Raises:
        TraceFormatError: no paths given, an unreadable/foreign file, or
            mid-file corruption in any source.
    """
    sources = [load_trace_lenient(path) for path in paths]
    if not sources:
        raise TraceFormatError("no trace files to merge")
    wall_base = min(source.wall for source in sources)
    keyed: list[tuple[float, int, int, dict]] = []
    for index, source in enumerate(sources):
        offset = source.wall - wall_base
        for event in source.events:
            record = dict(event)
            record["t"] = offset + float(record.get("t", 0.0))
            record["src"] = source.label
            keyed.append((record["t"], index, int(record.get("seq", 0)), record))
    keyed.sort(key=lambda item: item[:3])
    events: list[dict] = []
    for seq, (_t, _index, _seq, record) in enumerate(keyed, start=1):
        record["seq"] = seq
        events.append(record)
    return MergedTrace(events=events, sources=sources, wall_base=wall_base)


def merged_counters(merged: MergedTrace) -> dict[str, int]:
    """The sum of each source's :func:`~repro.obs.report.replay_counters`.

    Sources are summed one by one, so the totals for a ``workers=N`` run
    equal the serial run's totals however the points were sharded.
    """
    totals: Counter[str] = Counter()
    for source in merged.sources:
        totals.update(replay_counters(source.events))
    return dict(totals)


def merge_report(merged: MergedTrace) -> str:
    """ASCII summary: per-source rows plus the merged counter totals."""
    from ..experiments.report import ascii_table  # local: avoids import cycle

    rows = []
    for source in merged.sources:
        counters = replay_counters(source.events)
        start = (
            f"{(source.wall - merged.wall_base):.3f}s" if source.wall else "-"
        )
        rows.append(
            [
                source.label + (" (torn)" if source.torn else ""),
                len(source.events),
                counters["states_examined"],
                counters["states_generated"],
                counters["iterations"],
                start,
            ]
        )
    lines = [
        f"merged trace: {len(merged.sources)} source(s), "
        f"{len(merged.events)} events"
    ]
    lines.append(
        ascii_table(
            ["source", "events", "examined", "generated", "iterations", "start+"],
            rows,
            title="per-source (start+ = tracer armed after earliest source)",
        )
    )
    total_rows = [
        [name, value]
        for name, value in sorted(merged_counters(merged).items())
        if value
    ]
    if total_rows:
        lines.append("")
        lines.append(
            ascii_table(
                ["counter", "total"],
                total_rows,
                title="merged counters (sum of replayed counters)",
            )
        )
    if merged.torn_sources:
        lines.append("")
        lines.append(
            "torn source(s), final line dropped: "
            + ", ".join(merged.torn_sources)
        )
    return "\n".join(lines)


def write_merged(merged: MergedTrace, path: str | Path) -> None:
    """Persist the merged timeline as a fresh JSONL trace.

    The header stamps the current schema version, the earliest source's
    wall anchor, and the contributing source labels; the body is the
    merged event stream, so the file round-trips through
    :func:`~repro.obs.tracer.load_trace` and every downstream report.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        _write_record(
            fh,
            {
                "event": TRACE_HEADER,
                "seq": 0,
                "t": 0.0,
                "schema_version": SCHEMA_VERSION,
                "wall": merged.wall_base,
                "merged_from": [source.label for source in merged.sources],
            },
        )
        for record in merged.events:
            validate_event(record, record.get("seq", 0))
            _write_record(fh, record)


def _write_record(fh: IO[str], record: dict) -> None:
    fh.write(json_dumps_compact(record) + "\n")


def discover_trace_files(target: str | Path) -> list[Path]:
    """Expand a CLI merge operand: a directory becomes its ``*.jsonl`` files.

    Files are returned sorted by name so merges are deterministic; a file
    path passes through as-is.
    """
    target = Path(target)
    if target.is_dir():
        return sorted(target.glob("*.jsonl"))
    return [target]
