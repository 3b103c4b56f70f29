"""Tracing overhead — the NullSink guard must be (nearly) free.

The telemetry layer's contract is that *disabled* tracing costs one
attribute load and one branch per instrumentation site.  This bench puts a
number on that: the Fig. 5 synthetic IDA*/h0 workload (the PR 1 cache-
ablation headline) is timed per arm —

* ``baseline``  — no tracer at all (the shared NULL_TRACER default),
* ``nullsink``  — an explicit ``Tracer(NullSink())`` attached,
* ``progress``  — no tracer, but a live progress callback attached (the
  heartbeat throttle piggybacks on the existing limit-check cadence),
* ``memory``    — full event stream into a ``MemorySink``,
* ``jsonl``     — full event stream to a JSONL file,

with min-of-rounds wall clock and a bit-identity check (status, states
examined/generated, iterations must agree across all arms).  The
acceptance bar is **nullsink overhead < 3 %** of baseline; memory/jsonl
arms are informational (they pay for real event records).

Run standalone::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py --quick

``--strict`` exits non-zero if the nullsink arm exceeds the 3 % bar
(off by default: sub-ms workloads on shared CI boxes are noisy).
"""

from __future__ import annotations

import argparse
import gc
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro.obs import JsonlSink, MemorySink, NullSink, Tracer
from repro.search import SearchConfig, discover_mapping
from repro.search.result import SearchResult
from repro.workloads import matching_pair

if __package__ is None and not __name__.startswith("benchmarks"):
    # running as a script: make _bench_utils importable
    import os

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _bench_utils import record_section

ALGORITHM = "ida"
HEURISTIC = "h0"
HEADLINE_SIZES = (4, 5)
QUICK_SIZES = (3, 4)
BUDGET = 400_000
#: acceptance bar for the disabled-tracing arm
MAX_NULLSINK_OVERHEAD = 0.03

#: arm name -> tracer factory (None = run without a tracer argument)
ARMS: tuple[str, ...] = ("baseline", "nullsink", "progress", "memory", "jsonl")


def _make_tracer(arm: str, tmp_dir: Path, size: int) -> Tracer | None:
    if arm in ("baseline", "progress"):
        return None
    if arm == "nullsink":
        return Tracer(NullSink())
    if arm == "memory":
        return Tracer(MemorySink())
    if arm == "jsonl":
        return Tracer(JsonlSink(tmp_dir / f"trace_n{size}.jsonl"))
    raise ValueError(f"unknown arm {arm!r}")


def _run(size: int, arm: str, tmp_dir: Path) -> SearchResult:
    pair = matching_pair(size)
    tracer = _make_tracer(arm, tmp_dir, size)
    progress = (lambda update: None) if arm == "progress" else None
    try:
        return discover_mapping(
            pair.source,
            pair.target,
            algorithm=ALGORITHM,
            heuristic=HEURISTIC,
            config=SearchConfig(max_states=BUDGET),
            simplify=False,
            tracer=tracer,
            progress=progress,
        )
    finally:
        if tracer is not None:
            tracer.close()


def _timed(
    size: int, arm: str, rounds: int, tmp_dir: Path
) -> tuple[float, SearchResult]:
    """Min-of-rounds wall clock (GC paused around each timed round)."""
    best = float("inf")
    result: SearchResult | None = None
    gc_was_enabled = gc.isenabled()
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            start = time.perf_counter()
            result = _run(size, arm, tmp_dir)
            best = min(best, time.perf_counter() - start)
        finally:
            if gc_was_enabled:
                gc.enable()
    assert result is not None
    return best, result


def measure_overhead(sizes: Sequence[int], rounds: int) -> list[dict]:
    """One row per schema size: per-arm seconds + nullsink overhead."""
    rows: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        tmp_dir = Path(tmp)
        for size in sizes:
            timings: dict[str, float] = {}
            results: dict[str, SearchResult] = {}
            for arm in ARMS:
                timings[arm], results[arm] = _timed(size, arm, rounds, tmp_dir)
            base = results["baseline"].stats
            for arm in ARMS[1:]:
                stats = results[arm].stats
                if (
                    results[arm].status != results["baseline"].status
                    or stats.states_examined != base.states_examined
                    or stats.states_generated != base.states_generated
                    or stats.iterations != base.iterations
                ):
                    raise AssertionError(
                        f"tracing changed the search at size {size} ({arm}): "
                        f"{stats.states_examined} != {base.states_examined} states"
                    )
            baseline = timings["baseline"]
            rows.append(
                {
                    "size": size,
                    "states": base.states_examined,
                    "timings": timings,
                    "overheads": {
                        arm: (timings[arm] - baseline) / baseline
                        if baseline
                        else 0.0
                        for arm in ARMS[1:]
                    },
                }
            )
    return rows


def overhead_table(rows: Sequence[dict]) -> str:
    headers = ["size", "states", "baseline (s)"] + [
        f"{arm} (s / +%)" for arm in ARMS[1:]
    ]
    body = []
    for r in rows:
        cells = [str(r["size"]), str(r["states"]), f"{r['timings']['baseline']:.3f}"]
        for arm in ARMS[1:]:
            cells.append(
                f"{r['timings'][arm]:.3f} / {r['overheads'][arm]:+.1%}"
            )
        body.append(cells)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body))
        for i in range(len(headers))
    ]

    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [f"IDA*/{HEURISTIC}, synthetic matching — tracing overhead by sink"]
    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)


# -- pytest-benchmark entry points -------------------------------------------


def test_trace_overhead_nullsink(benchmark):
    rows = benchmark.pedantic(
        lambda: measure_overhead(QUICK_SIZES, rounds=3),
        rounds=1,
        iterations=1,
    )
    worst = max(r["overheads"]["nullsink"] for r in rows)
    benchmark.extra_info["nullsink_worst_overhead"] = worst
    record_section(
        "Tracing overhead — IDA*/h0 synthetic matching by sink",
        overhead_table(rows),
    )
    # measure_overhead already raised if any arm changed the search; the
    # timing bar is tripled here because shared CI boxes are noisy — the
    # standalone headline run is where the 3 % acceptance number comes from
    assert worst < MAX_NULLSINK_OVERHEAD * 3


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small sizes, 3 rounds")
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument(
        "--strict",
        action="store_true",
        # argparse %-formats help text, so the rendered percent sign is doubled
        help=f"fail if nullsink overhead exceeds {MAX_NULLSINK_OVERHEAD * 100:.0f}%%",
    )
    args = parser.parse_args(argv)
    sizes = QUICK_SIZES if args.quick else HEADLINE_SIZES
    rounds = args.rounds if args.rounds is not None else (3 if args.quick else 5)

    rows = measure_overhead(sizes, rounds)
    table = overhead_table(rows)
    record_section("trace overhead", table)
    print(table)

    worst = max(r["overheads"]["nullsink"] for r in rows)
    verdict = "PASS" if worst < MAX_NULLSINK_OVERHEAD else "FAIL"
    print(
        f"\nnullsink worst-case overhead: {worst:+.2%} "
        f"(bar {MAX_NULLSINK_OVERHEAD:.0%}) -> {verdict}"
    )
    print("bit-identity across all arms: OK")
    if args.strict and verdict == "FAIL":
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
