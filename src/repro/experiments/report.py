"""ASCII rendering of experiment results.

The benches print the same rows/series the paper's figures plot; these
helpers keep that output aligned and consistent.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from .runner import ExperimentSeries


def format_states(states: int, found: bool = True) -> str:
    """Render a states-examined count; budget cut-offs are marked ``>``."""
    return f"{states}" if found else f">{states}"


def ascii_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """A fixed-width table with a separator under the header."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def series_table(series_list: Sequence[ExperimentSeries], x_label: str) -> str:
    """Tabulate several series against their union of x-values.

    Missing points (series cut at the budget) render as ``-``.
    """
    xs = sorted({p.x for s in series_list for p in s.points})
    headers = [x_label] + [s.label for s in series_list]
    by_series = [{p.x: p for p in s.points} for s in series_list]
    rows = []
    for x in xs:
        row: list[object] = [int(x) if float(x).is_integer() else x]
        for lookup in by_series:
            point = lookup.get(x)
            if point is None:
                row.append("-")
            else:
                row.append(format_states(point.states, point.found))
        rows.append(row)
    return ascii_table(headers, rows)


def averages_table(
    averages: Mapping[str, Mapping[str, float]], row_label: str = "heuristic"
) -> str:
    """Tabulate ``{row: {column: value}}`` averages (Fig. 7/8 style)."""
    row_keys = list(averages)
    col_keys: list[str] = []
    for columns in averages.values():
        for key in columns:
            if key not in col_keys:
                col_keys.append(key)
    headers = [row_label] + col_keys
    rows = []
    for row_key in row_keys:
        row: list[object] = [row_key]
        for col in col_keys:
            value = averages[row_key].get(col)
            row.append("-" if value is None else f"{value:.1f}")
        rows.append(row)
    return ascii_table(headers, rows)


def cache_summary_table(series_list: Sequence[ExperimentSeries]) -> str:
    """Tabulate memo-cache counters per series (hits/misses).

    Sums the cache counters recorded on every point of each series and
    derives the hit rate and aggregate states/sec, so ablation benches can
    print cache effectiveness next to the paper's states-examined tables.
    """
    headers = [
        "series",
        "states",
        "cache hits",
        "cache misses",
        "hit rate",
        "states/sec",
    ]
    rows: list[list[object]] = []
    for series in series_list:
        states = sum(p.states for p in series.points)
        hits = sum(p.cache_hits for p in series.points)
        misses = sum(p.cache_misses for p in series.points)
        seconds = sum(p.elapsed_seconds for p in series.points)
        lookups = hits + misses
        rate = f"{hits / lookups:.1%}" if lookups else "-"
        throughput = f"{states / seconds:.0f}" if seconds > 0 else "-"
        rows.append([series.label, states, hits, misses, rate, throughput])
    return ascii_table(headers, rows)


def trace_index_table(series_list: Sequence[ExperimentSeries]) -> str:
    """Tabulate the JSONL traces persisted for a series collection.

    One row per traced point (series run with ``trace_dir=``); inspect any
    row with ``repro trace --inspect PATH``.  Untraced points are skipped.
    """
    headers = ["series", "x", "states", "elapsed (s)", "trace"]
    rows: list[list[object]] = []
    for series in series_list:
        for point in series.points:
            if not point.trace_path:
                continue
            rows.append(
                [
                    series.label,
                    int(point.x) if float(point.x).is_integer() else point.x,
                    format_states(point.states, point.found),
                    f"{point.elapsed_seconds:.3f}",
                    point.trace_path,
                ]
            )
    if not rows:
        return "(no traces recorded — run the series with trace_dir=...)"
    return ascii_table(headers, rows)


def log_bucket(states: float) -> str:
    """The order-of-magnitude bucket of a measurement (for shape checks)."""
    if states <= 0:
        return "10^0"
    return f"10^{int(math.floor(math.log10(states)))}"
