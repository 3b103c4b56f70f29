"""SQL execution backends — sqlite vs the minisql reference interpreter.

Scales the paper's Fig. 1 FlightsB schema to a ≥100k-row ``Prices``
instance and pushes the Example 2 restructuring pipeline (↑, π̄, π̄, µ,
ρatt, ρrel) through every available execution backend.  Two things are
measured, one thing is asserted twice:

* **bit-identity** — every backend's result must equal replaying the
  mapping through the in-memory algebra (``==`` on ``Database``), at
  every size.  The speedup claim is meaningless if an engine cheats.
* **speedup** — min-of-rounds execute-phase wall clock; the headline bar
  is sqlite ≥ 5x over minisql at the largest size.  duckdb joins the
  sweep automatically when installed.

Beside the execute phase, each backend reports what a caller waits for:
min-of-rounds compile seconds, and the wall time of one first
``execute_mapping`` call on a freshly built instance, whose memoised views
(the sorted rows the loader reads) do not exist yet.

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

from repro.backends import available_backends, execute_mapping, get_backend
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

#: asserted bar at the largest size: sqlite execute ≥ 5x minisql execute
TARGET_SQLITE_VS_MINISQL = 5.0
#: re-measure attempts before declaring the bar unmet (minima only improve)
MAX_ATTEMPTS = 3

BASELINE = "minisql"
HEADLINE_BACKEND = "sqlite"


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


def backend_names_in_sweep() -> tuple[str, ...]:
    """Every available backend, minisql (the baseline) first."""
    names = sorted(b.name for b in available_backends())
    names.remove(BASELINE)
    return (BASELINE, *names)


def _timed_execute(name: str, expression, source, rounds: int) -> dict:
    """Min-of-rounds execute/compile seconds for one backend cell.

    Cyclic GC is collected then paused around each timed round so another
    backend's garbage doesn't bleed into this one's wall clock.
    """
    best_execute = float("inf")
    best_compile = float("inf")
    database = None
    statements = 0
    gc_was_enabled = gc.isenabled()
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        try:
            result = execute_mapping(expression, source, backend=name)
        finally:
            if gc_was_enabled:
                gc.enable()
        best_execute = min(best_execute, result.execute_seconds)
        best_compile = min(best_compile, result.compile_seconds)
        database = result.database
        statements = result.script.statement_count
    return {
        "execute_secs": best_execute,
        "compile_secs": best_compile,
        "statements": statements,
        "database": database,
    }


def _first_call(name: str, expression, carriers: int, routes: int) -> float:
    """Wall seconds of one call on an instance with no view memoised."""
    source = prices_instance(carriers, routes)
    gc.collect()
    start = time.perf_counter()
    execute_mapping(expression, source, backend=name)
    return time.perf_counter() - start


def measure_backends(
    sizes: Sequence[tuple[int, int]], rounds: int = 2
) -> list[dict]:
    """The sweep: one row per instance size, bit-identity asserted."""
    expression = restructuring_expression()
    names = backend_names_in_sweep()
    rows = []
    for carriers, routes in sizes:
        source = prices_instance(carriers, routes)
        start = time.perf_counter()
        algebra = expression.apply(source)
        algebra_secs = time.perf_counter() - start
        row: dict = {
            "carriers": carriers,
            "routes": routes,
            "rows": carriers * routes,
            "algebra_secs": algebra_secs,
            "backends": {},
        }
        for name in names:
            cell = _timed_execute(name, expression, source, rounds)
            if cell["database"] != algebra:
                raise AssertionError(
                    f"backend {name} diverged from the in-memory algebra "
                    f"at {row['rows']} rows — speedups are void"
                )
            row["backends"][name] = {
                "execute_secs": cell["execute_secs"],
                "compile_secs": cell["compile_secs"],
                "first_call_secs": _first_call(
                    name, expression, carriers, routes
                ),
                "statements": cell["statements"],
            }
        base = row["backends"][BASELINE]["execute_secs"]
        for name in names:
            secs = row["backends"][name]["execute_secs"]
            row["backends"][name]["vs_minisql"] = (
                base / secs if secs else float("inf")
            )
        rows.append(row)
    return rows


def measure_headline(rounds: int = 2) -> tuple[list[dict], dict]:
    """The asserted sweep: retry on a noisy box, minima only improve."""
    rows = measure_backends(HEADLINE_SIZES, rounds=rounds)
    for _ in range(MAX_ATTEMPTS - 1):
        head = rows[-1]
        if (
            head["backends"][HEADLINE_BACKEND]["vs_minisql"]
            >= TARGET_SQLITE_VS_MINISQL
        ):
            break
        retry = measure_backends(HEADLINE_SIZES[-1:], rounds=rounds)[0]
        for name, cell in retry["backends"].items():
            mine = head["backends"][name]
            mine["execute_secs"] = min(
                mine["execute_secs"], cell["execute_secs"]
            )
            for key in ("compile_secs", "first_call_secs"):
                mine[key] = min(mine[key], cell[key])
        base = head["backends"][BASELINE]["execute_secs"]
        for cell in head["backends"].values():
            cell["vs_minisql"] = (
                base / cell["execute_secs"]
                if cell["execute_secs"]
                else float("inf")
            )
    head = rows[-1]
    speedup = head["backends"][HEADLINE_BACKEND]["vs_minisql"]
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
        "backends": list(backend_names_in_sweep()),
        "rows": [
            {
                "rows": r["rows"],
                "algebra_secs": r["algebra_secs"],
                "backends": {
                    name: dict(cell) for name, cell in r["backends"].items()
                },
            }
            for r in rows
        ],
        "headline": {
            "rows": head["rows"],
            "sqlite_vs_minisql": speedup,
            **{
                f"{name}_{key}": head["backends"][name][key]
                for name in (BASELINE, HEADLINE_BACKEND)
                for key in ("execute_secs", "compile_secs", "first_call_secs")
            },
        },
        "targets": {"sqlite_vs_minisql": TARGET_SQLITE_VS_MINISQL},
        "bit_identical": True,
        "speedup_asserted": speedup >= TARGET_SQLITE_VS_MINISQL,
    }
    return rows, payload


def backends_table(rows: Sequence[dict]) -> str:
    """Render the sweep as an ASCII table."""
    names = backend_names_in_sweep()
    headers = ["rows", "algebra (s)"]
    for name in names:
        headers.extend(
            [f"{name} (s)", "vs mini", "compile (s)", "first call (s)"]
        )
    body = []
    for r in rows:
        cells = [str(r["rows"]), f"{r['algebra_secs']:.3f}"]
        for name in names:
            cell = r["backends"][name]
            cells.append(f"{cell['execute_secs']:.3f}")
            cells.append(f"{cell['vs_minisql']:.1f}x")
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
        "FlightsB → FlightsA restructuring per backend: execute phase, "
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
    benchmark.extra_info["sqlite_vs_minisql"] = head["sqlite_vs_minisql"]
    record_section(
        "SQL backends — FlightsB restructuring at scale (execute phase)",
        backends_table(rows)
        + f"\n\nheadline {head['rows']} rows: "
        f"{head['sqlite_vs_minisql']:.1f}x sqlite vs minisql "
        f"(target {TARGET_SQLITE_VS_MINISQL:.0f}x)",
    )
    write_bench_json(Path(__file__).resolve().parent.parent / JSON_NAME, payload)
    assert head["sqlite_vs_minisql"] >= TARGET_SQLITE_VS_MINISQL, (
        f"sqlite only {head['sqlite_vs_minisql']:.1f}x over minisql "
        f"(target {TARGET_SQLITE_VS_MINISQL}x)"
    )


def test_sql_backend_bit_identical(benchmark):
    # small instance, every backend, identity enforced inside the sweep
    rows = benchmark.pedantic(
        lambda: measure_backends(QUICK_SIZES, rounds=1), rounds=1, iterations=1
    )
    assert rows, "sweep produced no rows"


# -- standalone CLI -----------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure SQL execution backends against minisql."
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

    from repro.backends import backend_names

    for name in backend_names():
        reason = get_backend(name).availability()
        if reason is not None:  # pragma: no cover - env-dependent
            print(f"note: skipping {name}: {reason}")

    if args.quick:
        rows = measure_backends(QUICK_SIZES, rounds=rounds)
        payload = None
    else:
        rows, payload = measure_headline(rounds=rounds)
    print(backends_table(rows))
    print()
    print("bit-identity: every backend matched the in-memory algebra")

    if payload is not None:
        head = payload["headline"]
        print(
            f"headline {head['rows']} rows: "
            f"{head['sqlite_vs_minisql']:.1f}x sqlite vs minisql "
            f"(target {TARGET_SQLITE_VS_MINISQL:.0f}x); sqlite compile "
            f"{head['sqlite_compile_secs']:.3f}s, first call "
            f"{head['sqlite_first_call_secs']:.3f}s"
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
