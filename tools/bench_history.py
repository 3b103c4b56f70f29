#!/usr/bin/env python
"""Track ``BENCH_*.json`` headline metrics across runs and flag regressions.

The perf benches publish machine-readable results at the repo root
(``BENCH_parallel_scaling.json``, ``BENCH_warm_start.json``, ...).  Each
file carries one or two *headline* numbers — the speedup ratios the repo's
performance story rests on.  This tool keeps them honest over time:

* ``record`` appends each file's tracked metrics as one JSONL line to a
  history file (default ``bench_history.jsonl``; override with
  ``--history`` or the ``REPRO_BENCH_HISTORY`` environment variable, which
  also makes :func:`benchmarks._bench_utils.write_bench_json` append
  automatically whenever a bench publishes).
* ``check`` compares each file's current metrics against the best value in
  the history and exits ``1`` when any metric fell more than
  ``--threshold`` (default 15 %) below that best — the CI regression gate.

All tracked metrics are higher-is-better ratios.  Exit codes: 0 OK,
1 regression detected, 2 usage/input error.

Usage::

    PYTHONPATH=src python tools/bench_history.py record BENCH_*.json
    PYTHONPATH=src python tools/bench_history.py check BENCH_*.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Iterable, Mapping, Sequence

#: environment variable naming the history file (also read by
#: benchmarks/_bench_utils.write_bench_json for automatic appends)
HISTORY_ENV = "REPRO_BENCH_HISTORY"

#: default history file, relative to the current working directory
DEFAULT_HISTORY = "bench_history.jsonl"

#: a metric this far below the historical best is flagged as a regression
DEFAULT_THRESHOLD = 0.15

#: bench name (the ``<name>`` of ``BENCH_<name>.json``) -> tracked
#: higher-is-better metrics as dotted paths into the payload
TRACKED_METRICS: dict[str, tuple[str, ...]] = {
    "parallel_scaling": ("arms.workers_2.speedup",),
    "sql_backends": ("headline.sqlite_vs_algebra",),
    "warm_start": ("headline.warm_vs_cold",),
}


def bench_name(path: str | Path) -> str:
    """``BENCH_warm_start.json`` -> ``warm_start``."""
    stem = Path(path).stem
    return stem[len("BENCH_"):] if stem.startswith("BENCH_") else stem


def extract_path(payload: Mapping, dotted: str) -> float | None:
    """Resolve a ``a.b.c`` path into *payload*; None when absent/non-numeric."""
    node: object = payload
    for part in dotted.split("."):
        if not isinstance(node, Mapping) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def extract_metrics(name: str, payload: Mapping) -> dict[str, float]:
    """The tracked metrics present in *payload* (unknown bench -> KeyError)."""
    if name not in TRACKED_METRICS:
        raise KeyError(
            f"no tracked metrics for bench {name!r}; known: "
            f"{sorted(TRACKED_METRICS)}"
        )
    metrics: dict[str, float] = {}
    for dotted in TRACKED_METRICS[name]:
        value = extract_path(payload, dotted)
        if value is not None:
            metrics[dotted] = value
    return metrics


def load_history(history_path: str | Path) -> list[dict]:
    """History entries, oldest first; a missing file is an empty history."""
    path = Path(history_path)
    if not path.exists():
        return []
    entries: list[dict] = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}:{line_no}: bad history line ({exc})"
            ) from exc
        if isinstance(entry, dict):
            entries.append(entry)
    return entries


def append_history(
    history_path: str | Path,
    name: str,
    metrics: Mapping[str, float],
    source: str = "",
) -> dict:
    """Append one run's metrics as a JSONL line; returns the entry written."""
    entry = {
        "bench": name,
        "recorded_unix": round(time.time(), 3),
        "metrics": dict(metrics),
    }
    if source:
        entry["source"] = source
    path = Path(history_path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def best_values(entries: Iterable[Mapping], name: str) -> dict[str, float]:
    """Best historical value per metric for one bench (all higher-better)."""
    best: dict[str, float] = {}
    for entry in entries:
        if entry.get("bench") != name:
            continue
        for metric, value in (entry.get("metrics") or {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = float(value)
                if metric not in best or value > best[metric]:
                    best[metric] = value
    return best


def find_regressions(
    name: str,
    current: Mapping[str, float],
    entries: Iterable[Mapping],
    threshold: float,
) -> list[str]:
    """Human-readable regression lines (empty = all metrics hold up).

    A metric regresses when its current value is more than *threshold*
    below the best value the history has ever recorded for it.  Metrics
    with no history yet pass vacuously (first run seeds the baseline).
    """
    best = best_values(entries, name)
    problems: list[str] = []
    for metric, value in sorted(current.items()):
        if metric not in best:
            continue
        floor = best[metric] * (1.0 - threshold)
        if value < floor:
            problems.append(
                f"{name}: {metric} = {value:.3f} is {1 - value / best[metric]:.1%} "
                f"below the historical best {best[metric]:.3f} "
                f"(allowed {threshold:.0%})"
            )
    return problems


def _load_payload(path: Path) -> Mapping:
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, Mapping):
        raise ValueError(f"{path} holds {type(payload).__name__}, not an object")
    return payload


def _resolve_history(arg: str | None) -> Path:
    return Path(arg or os.environ.get(HISTORY_ENV) or DEFAULT_HISTORY)


def cmd_record(args: argparse.Namespace) -> int:
    history = _resolve_history(args.history)
    for name in sorted({bench_name(p) for p in args.paths}):
        if name not in TRACKED_METRICS:
            print(
                f"error: no tracked metrics for bench {name!r}; "
                f"known: {sorted(TRACKED_METRICS)}",
                file=sys.stderr,
            )
            return 2
    for path_text in args.paths:
        path = Path(path_text)
        payload = _load_payload(path)
        metrics = extract_metrics(bench_name(path), payload)
        if not metrics:
            print(
                f"error: {path} has none of the tracked metrics "
                f"{TRACKED_METRICS[bench_name(path)]}",
                file=sys.stderr,
            )
            return 2
        entry = append_history(history, bench_name(path), metrics, source=str(path))
        rendered = " ".join(
            f"{metric}={value:.3f}" for metric, value in sorted(metrics.items())
        )
        print(f"recorded {entry['bench']}: {rendered} -> {history}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    history = _resolve_history(args.history)
    entries = load_history(history)
    problems: list[str] = []
    for path_text in args.paths:
        path = Path(path_text)
        payload = _load_payload(path)
        name = bench_name(path)
        current = extract_metrics(name, payload)
        if not current:
            print(
                f"error: {path} has none of the tracked metrics "
                f"{TRACKED_METRICS.get(name, ())}",
                file=sys.stderr,
            )
            return 2
        found = find_regressions(name, current, entries, args.threshold)
        problems.extend(found)
        if not found:
            best = best_values(entries, name)
            for metric, value in sorted(current.items()):
                reference = (
                    f"best {best[metric]:.3f}" if metric in best else "no history"
                )
                print(f"ok {name}: {metric} = {value:.3f} ({reference})")
    for line in problems:
        print(f"REGRESSION {line}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    record = sub.add_parser("record", help="append tracked metrics to the history")
    record.add_argument("paths", nargs="+", metavar="BENCH_JSON")
    record.add_argument(
        "--history", default=None,
        help=f"history file (default ${HISTORY_ENV} or {DEFAULT_HISTORY})",
    )
    record.set_defaults(func=cmd_record)

    check = sub.add_parser("check", help="flag metrics below the historical best")
    check.add_argument("paths", nargs="+", metavar="BENCH_JSON")
    check.add_argument(
        "--history", default=None,
        help=f"history file (default ${HISTORY_ENV} or {DEFAULT_HISTORY})",
    )
    check.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help=f"allowed drop below the best (default {DEFAULT_THRESHOLD:.0%})",
    )
    check.set_defaults(func=cmd_check)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
