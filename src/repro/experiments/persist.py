"""Persist experiment results to JSON.

Bench runs are cheap but not free; this module archives
:class:`~repro.experiments.runner.ExperimentSeries` collections so results
can be versioned, diffed across runs, and re-rendered into tables/charts
without re-searching.
"""

from __future__ import annotations

from pathlib import Path
from typing import Mapping, Sequence

from ..serialize import json_dumps_indent2, json_loads
from .runner import ExperimentPoint, ExperimentSeries

#: current archive format version
FORMAT_VERSION = 1


def _point_to_dict(point: ExperimentPoint) -> dict:
    out = {
        "x": point.x,
        "states": point.states,
        "status": point.status,
        "expression_size": point.expression_size,
        "cache_hits": point.cache_hits,
        "cache_misses": point.cache_misses,
        "elapsed_seconds": point.elapsed_seconds,
        "trace_path": point.trace_path,
    }
    # only deadline-bounded points carry the field, so archives written by
    # unbounded sweeps stay byte-identical to the historical format
    if point.deadline_seconds:
        out["deadline_seconds"] = point.deadline_seconds
    return out


def series_to_dict(series: ExperimentSeries) -> dict:
    """Plain-dict form of one series."""
    return {
        "label": series.label,
        "points": [_point_to_dict(point) for point in series.points],
    }


def series_from_dict(data: Mapping) -> ExperimentSeries:
    """Inverse of :func:`series_to_dict`.

    Keys the point no longer has are ignored, so archives that still carry
    the memo-eviction counters of a bounded node table load as they are.
    """
    return ExperimentSeries(
        label=str(data["label"]),
        points=tuple(
            ExperimentPoint(
                x=point["x"],
                states=int(point["states"]),
                status=str(point["status"]),
                expression_size=int(point.get("expression_size", 0)),
                cache_hits=int(point.get("cache_hits", 0)),
                cache_misses=int(point.get("cache_misses", 0)),
                elapsed_seconds=float(point.get("elapsed_seconds", 0.0)),
                trace_path=str(point.get("trace_path", "")),
                deadline_seconds=float(point.get("deadline_seconds", 0.0)),
            )
            for point in data["points"]
        ),
    )


def save_series(
    path: str | Path,
    series_list: Sequence[ExperimentSeries],
    metadata: Mapping[str, object] | None = None,
) -> Path:
    """Write series (plus free-form metadata) to a JSON file."""
    path = Path(path)
    payload = {
        "format_version": FORMAT_VERSION,
        "metadata": dict(metadata or {}),
        "series": [series_to_dict(series) for series in series_list],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_dumps_indent2(payload) + "\n")
    return path


def load_series(path: str | Path) -> tuple[list[ExperimentSeries], dict]:
    """Read series and metadata back from a JSON archive.

    Raises:
        ValueError: on unknown format versions.
    """
    payload = json_loads(Path(path).read_text())
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported experiment archive version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    series_list = [series_from_dict(item) for item in payload["series"]]
    return series_list, dict(payload.get("metadata", {}))
