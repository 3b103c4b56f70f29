"""SQL execution — sqlite against the in-memory algebra.

Scales the paper's Fig. 1 FlightsB schema to a ≥100k-row ``Prices``
instance and runs the Example 2 restructuring pipeline (↑, π̄, π̄, µ,
ρatt, ρrel) on both execution engines: stdlib sqlite, and the in-memory
algebra (``MappingExpression.apply``) that ``execute_mapping`` hands a
mapping to when sqlite declines it.  Two things are measured, one thing is
asserted twice:

* **bit-identity** — sqlite's result must equal the algebra's (``==`` on
  ``Database``), at every size.  The speedup claim is meaningless if the
  engine cheats.
* **speedup** — min-of-rounds execute-phase wall clock of each engine,
  GC collected then paused around every round; the headline bar is
  sqlite ≥ :data:`TARGET_SQLITE_VS_ALGEBRA` times the algebra at the
  largest size.

Beside the execute phase, each engine reports what a caller waits for:
min-of-rounds compile seconds (zero for the algebra, which compiles
nothing), and the wall time of one first call on a freshly built
instance, whose memoised views (the sorted rows sqlite's loader reads,
the token columns the algebra reads) do not exist yet.

Results land in ``BENCH_sql_backends.json`` at the repo root and flow
through ``tools/bench_history.py`` when ``REPRO_BENCH_HISTORY`` is set.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_sql_backends.py --quick

or through the bench suite: ``pytest benchmarks/bench_sql_backends.py
--benchmark-only``.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.backends import execute_mapping
from repro.fira import (
    DropAttribute,
    MappingExpression,
    Merge,
    Promote,
    RenameAttribute,
    RenameRelation,
)
from repro.relational import Database, Relation

if __package__ is None and not __name__.startswith("benchmarks"):
    # running as a script: make _bench_utils importable
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _bench_utils import record_section, write_bench_json

#: (carriers, routes) cells — carriers * routes = source rows
HEADLINE_SIZES = ((1_000, 10), (10_000, 10))
QUICK_SIZES = ((200, 4),)
JSON_NAME = "BENCH_sql_backends.json"

#: asserted bar at the largest size: sqlite execute ≥ 2.5x the algebra's.
#: Eight headline runs on a shared 2-CPU host read 2.6x to 4.6x (median
#: 3.9x); the 2.6x run shared the host with a test run.
TARGET_SQLITE_VS_ALGEBRA = 2.5
#: re-measure attempts before declaring the bar unmet (minima only improve)
MAX_ATTEMPTS = 3

BASELINE = "algebra"
HEADLINE_ENGINE = "sqlite"
#: the engines in the sweep, the baseline first
ENGINES = (BASELINE, HEADLINE_ENGINE)


def prices_instance(carriers: int, routes: int) -> Database:
    """A FlightsB-style ``Prices`` table scaled to carriers x routes rows."""
    rows = [
        (
            f"C{c:05d}",
            f"R{r:02d}",
            100 + (c * 7 + r * 13) % 400,
            10 + c % 25,
        )
        for c in range(carriers)
        for r in range(routes)
    ]
    return Database.single(
        Relation("Prices", ("Carrier", "Route", "Cost", "AgentFee"), rows)
    )


def restructuring_expression() -> MappingExpression:
    """Example 2's FlightsB → FlightsA pipeline (routes become columns)."""
    return MappingExpression(
        [
            Promote("Prices", "Route", "Cost"),
            DropAttribute("Prices", "Route"),
            DropAttribute("Prices", "Cost"),
            Merge("Prices", "Carrier"),
            RenameAttribute("Prices", "AgentFee", "Fee"),
            RenameRelation("Prices", "Flights"),
        ]
    )


def _run(engine: str, expression, source) -> dict:
    """One call on *engine*: its execute and compile seconds, its result."""
    if engine == BASELINE:
        start = time.perf_counter()
        database = expression.apply(source)
        return {
            "execute_secs": time.perf_counter() - start,
            "compile_secs": 0.0,
            "statements": 0,
            "database": database,
        }
    result = execute_mapping(expression, source, backend=engine)
    return {
        "execute_secs": result.execute_seconds,
        "compile_secs": result.compile_seconds,
        "statements": result.script.statement_count,
        "database": result.database,
    }


def _timed_execute(engine: str, expression, source, rounds: int) -> dict:
    """Min-of-rounds execute/compile seconds for one engine cell.

    Cyclic GC is collected then paused around each timed round so the
    other engine's garbage doesn't bleed into this one's wall clock.
    """
    best: dict = {}
    gc_was_enabled = gc.isenabled()
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            cell = _run(engine, expression, source)
        finally:
            if gc_was_enabled:
                gc.enable()
        for key in ("execute_secs", "compile_secs"):
            cell[key] = min(cell[key], best.get(key, float("inf")))
        best = cell
    return best


def _first_call(engine: str, expression, carriers: int, routes: int) -> float:
    """Wall seconds of one call on an instance with no view memoised."""
    source = prices_instance(carriers, routes)
    gc.collect()
    start = time.perf_counter()
    _run(engine, expression, source)
    return time.perf_counter() - start


def _set_ratios(row: dict) -> None:
    """Each engine's execute-phase speedup over the algebra in *row*."""
    base = row["engines"][BASELINE]["execute_secs"]
    for cell in row["engines"].values():
        secs = cell["execute_secs"]
        cell["vs_algebra"] = base / secs if secs else float("inf")


def measure_engines(
    sizes: Sequence[tuple[int, int]], rounds: int = 2
) -> list[dict]:
    """The sweep: one row per instance size, bit-identity asserted."""
    expression = restructuring_expression()
    rows = []
    for carriers, routes in sizes:
        source = prices_instance(carriers, routes)
        row: dict = {
            "carriers": carriers,
            "routes": routes,
            "rows": carriers * routes,
            "engines": {},
        }
        databases = {}
        for engine in ENGINES:
            cell = _timed_execute(engine, expression, source, rounds)
            databases[engine] = cell.pop("database")
            cell["first_call_secs"] = _first_call(
                engine, expression, carriers, routes
            )
            row["engines"][engine] = cell
        if databases[HEADLINE_ENGINE] != databases[BASELINE]:
            raise AssertionError(
                f"{HEADLINE_ENGINE} diverged from the in-memory algebra "
                f"at {row['rows']} rows — speedups are void"
            )
        _set_ratios(row)
        rows.append(row)
    return rows


def measure_headline(rounds: int = 2) -> tuple[list[dict], dict]:
    """The asserted sweep: retry on a noisy box, minima only improve."""
    rows = measure_engines(HEADLINE_SIZES, rounds=rounds)
    for _ in range(MAX_ATTEMPTS - 1):
        head = rows[-1]
        if (
            head["engines"][HEADLINE_ENGINE]["vs_algebra"]
            >= TARGET_SQLITE_VS_ALGEBRA
        ):
            break
        retry = measure_engines(HEADLINE_SIZES[-1:], rounds=rounds)[0]
        for engine, cell in retry["engines"].items():
            mine = head["engines"][engine]
            for key in ("execute_secs", "compile_secs", "first_call_secs"):
                mine[key] = min(mine[key], cell[key])
        _set_ratios(head)
    head = rows[-1]
    speedup = head["engines"][HEADLINE_ENGINE]["vs_algebra"]
    payload = {
        "workload": {
            "schema": "FlightsB Prices (Carrier, Route, Cost, AgentFee)",
            "expression": str(restructuring_expression()),
            "sizes": [
                {"carriers": c, "routes": r, "rows": c * r}
                for c, r in HEADLINE_SIZES
            ],
            "rounds": rounds,
        },
        "engines": list(ENGINES),
        "rows": [
            {
                "rows": r["rows"],
                "engines": {
                    engine: dict(cell) for engine, cell in r["engines"].items()
                },
            }
            for r in rows
        ],
        "headline": {
            "rows": head["rows"],
            "sqlite_vs_algebra": speedup,
            **{
                f"{engine}_{key}": head["engines"][engine][key]
                for engine in ENGINES
                for key in ("execute_secs", "compile_secs", "first_call_secs")
            },
        },
        "targets": {"sqlite_vs_algebra": TARGET_SQLITE_VS_ALGEBRA},
        "bit_identical": True,
        "speedup_asserted": speedup >= TARGET_SQLITE_VS_ALGEBRA,
    }
    return rows, payload


def engines_table(rows: Sequence[dict]) -> str:
    """Render the sweep as an ASCII table."""
    headers = ["rows"]
    for engine in ENGINES:
        headers.extend(
            [f"{engine} (s)", "vs algebra", "compile (s)", "first call (s)"]
        )
    body = []
    for r in rows:
        cells = [str(r["rows"])]
        for engine in ENGINES:
            cell = r["engines"][engine]
            cells.append(f"{cell['execute_secs']:.3f}")
            cells.append(f"{cell['vs_algebra']:.1f}x")
            cells.append(f"{cell['compile_secs']:.3f}")
            cells.append(f"{cell['first_call_secs']:.3f}")
        body.append(cells)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in body))
        for i in range(len(headers))
    ]

    def fmt(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    lines = [
        "FlightsB → FlightsA restructuring per engine: execute phase, "
        "compile, and a first call on a fresh instance"
    ]
    lines.append(fmt(headers))
    lines.append(fmt(["-" * w for w in widths]))
    lines.extend(fmt(row) for row in body)
    return "\n".join(lines)


# -- pytest-benchmark entry points -------------------------------------------


def test_sql_backend_speedup(benchmark):
    rows, payload = benchmark.pedantic(
        lambda: measure_headline(rounds=1), rounds=1, iterations=1
    )
    head = payload["headline"]
    benchmark.extra_info["sqlite_vs_algebra"] = head["sqlite_vs_algebra"]
    record_section(
        "SQL execution — FlightsB restructuring at scale (execute phase)",
        engines_table(rows)
        + f"\n\nheadline {head['rows']} rows: "
        f"{head['sqlite_vs_algebra']:.1f}x sqlite vs the algebra "
        f"(target {TARGET_SQLITE_VS_ALGEBRA:.1f}x)",
    )
    write_bench_json(Path(__file__).resolve().parent.parent / JSON_NAME, payload)
    assert head["sqlite_vs_algebra"] >= TARGET_SQLITE_VS_ALGEBRA, (
        f"sqlite only {head['sqlite_vs_algebra']:.1f}x over the algebra "
        f"(target {TARGET_SQLITE_VS_ALGEBRA}x)"
    )


def test_sql_backend_bit_identical(benchmark):
    # small instance, both engines, identity enforced inside the sweep
    rows = benchmark.pedantic(
        lambda: measure_engines(QUICK_SIZES, rounds=1), rounds=1, iterations=1
    )
    assert rows, "sweep produced no rows"


# -- standalone CLI -----------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure SQL execution on sqlite against the in-memory "
        "algebra."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small instance, one round, no JSON — CI smoke mode",
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="timing rounds per cell"
    )
    parser.add_argument(
        "--no-json",
        action="store_true",
        help=f"skip writing {JSON_NAME}",
    )
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    rounds = args.rounds if args.rounds else (1 if args.quick else 2)

    if args.quick:
        rows = measure_engines(QUICK_SIZES, rounds=rounds)
        payload = None
    else:
        rows, payload = measure_headline(rounds=rounds)
    print(engines_table(rows))
    print()
    print("bit-identity: sqlite matched the in-memory algebra")

    if payload is not None:
        head = payload["headline"]
        print(
            f"headline {head['rows']} rows: "
            f"{head['sqlite_vs_algebra']:.1f}x sqlite vs the algebra "
            f"(target {TARGET_SQLITE_VS_ALGEBRA:.1f}x); sqlite compile "
            f"{head['sqlite_compile_secs']:.3f}s, first call "
            f"{head['sqlite_first_call_secs']:.3f}s; algebra first call "
            f"{head['algebra_first_call_secs']:.3f}s"
        )
        if not args.no_json:
            path = write_bench_json(
                Path(__file__).resolve().parent.parent / JSON_NAME, payload
            )
            print(f"wrote {path}")
        if not payload["speedup_asserted"]:
            print("SPEEDUP TARGET NOT MET", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
