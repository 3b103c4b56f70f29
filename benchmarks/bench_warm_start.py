"""Warm-start store — memo hits vs cold discovery.

Runs the paper's Fig. 5 workload (synthetic matching, IDA*/h0, n=6)
through two arms against one ``repro.store.WarmStartStore``:

* **cold** — plain discovery, no store: the baseline every claim divides
  by.
* **warm hit** — the same pair served from the mapping memo, re-verified
  against the live instances.  The headline bar is ≥ 20x over cold, and
  the served expression must be bit-identical to the cold search's.

Results land in ``BENCH_warm_start.json`` at the repo root and flow
through ``tools/bench_history.py`` when ``REPRO_BENCH_HISTORY`` is set.

Run standalone (no pytest needed)::

    PYTHONPATH=src python benchmarks/bench_warm_start.py --quick

or through the bench suite: ``pytest benchmarks/bench_warm_start.py
--benchmark-only``.
"""

from __future__ import annotations

import argparse
import gc
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Sequence

from repro import discover_mapping
from repro.store import WarmStartStore
from repro.workloads.synthetic import matching_pair

if __package__ is None and not __name__.startswith("benchmarks"):
    # running as a script: make _bench_utils importable
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _bench_utils import record_section, write_bench_json

#: Fig. 5 point the headline is asserted on
HEADLINE_N = 6
QUICK_N = 4
ALGORITHM = "ida"
HEURISTIC = "h0"
BUDGET = 400_000
JSON_NAME = "BENCH_warm_start.json"

#: asserted bar: memo hit ≥ 20x cold
TARGET_WARM_VS_COLD = 20.0
#: re-measure attempts before declaring a bar unmet (minima only improve)
MAX_ATTEMPTS = 3


def _discover(source, target, store=None):
    return discover_mapping(
        source,
        target,
        algorithm=ALGORITHM,
        heuristic=HEURISTIC,
        store=store,
        simplify=False,
    )


def _timed(fn, rounds: int) -> tuple[float, object]:
    """Min-of-rounds wall clock of *fn*; cyclic GC paused around each round."""
    best = float("inf")
    result = None
    gc_was_enabled = gc.isenabled()
    for _ in range(rounds):
        gc.collect()
        gc.disable()
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - start
            if gc_was_enabled:
                gc.enable()
        best = min(best, elapsed)
    return best, result


def measure_arms(n: int, store_dir: Path, rounds: int = 3) -> dict:
    """One measurement of both arms on the size-*n* pair."""
    pair = matching_pair(n)
    source, target = pair.source, pair.target

    # cold: no store anywhere near the engine
    cold_secs, cold = _timed(lambda: _discover(source, target), rounds)
    assert cold.found, f"cold search failed at n={n}: {cold.status}"

    # populate the store once (records the memo)
    if store_dir.exists():
        shutil.rmtree(store_dir)
    store = WarmStartStore(store_dir)
    seeded = _discover(source, target, store=store)
    assert seeded.found and not seeded.served_from_store

    # warm hit: served from the memo, verified, bit-identical
    def warm_run():
        result = _discover(source, target, store=WarmStartStore(store_dir))
        assert result.served_from_store, "expected a memo hit"
        return result

    warm_secs, warm = _timed(warm_run, rounds)
    assert str(warm.expression) == str(cold.expression), (
        "served mapping diverged from the cold search's"
    )
    assert warm.states_examined == 0

    return {
        "n": n,
        "states": cold.states_examined,
        "expression_ops": len(cold.expression.operators),
        "cold_secs": cold_secs,
        "warm_secs": warm_secs,
        "warm_vs_cold": cold_secs / warm_secs if warm_secs else float("inf"),
    }


def measure_headline(rounds: int = 3) -> dict:
    """The asserted measurement: retry on a noisy box, minima only improve."""
    with tempfile.TemporaryDirectory(prefix="tupelo-bench-store-") as tmp:
        store_dir = Path(tmp) / "store"
        row = measure_arms(HEADLINE_N, store_dir, rounds=rounds)
        for _ in range(MAX_ATTEMPTS - 1):
            if row["warm_vs_cold"] >= TARGET_WARM_VS_COLD:
                break
            retry = measure_arms(HEADLINE_N, store_dir, rounds=rounds)
            for key in ("cold_secs", "warm_secs"):
                row[key] = min(row[key], retry[key])
            row["warm_vs_cold"] = (
                row["cold_secs"] / row["warm_secs"]
                if row["warm_secs"]
                else float("inf")
            )
    return {
        "workload": {
            "experiment": "Fig. 5 synthetic matching",
            "n": HEADLINE_N,
            "algorithm": ALGORITHM,
            "heuristic": HEURISTIC,
            "budget": BUDGET,
            "rounds": rounds,
        },
        "arms": {
            "cold": {"secs": row["cold_secs"], "states": row["states"]},
            "warm_hit": {"secs": row["warm_secs"], "states": 0},
        },
        "headline": {"warm_vs_cold": row["warm_vs_cold"]},
        "targets": {"warm_vs_cold": TARGET_WARM_VS_COLD},
        "bit_identical": True,
        "speedup_asserted": row["warm_vs_cold"] >= TARGET_WARM_VS_COLD,
    }


def arms_table(payload: dict) -> str:
    """Render both arms as an ASCII table."""
    arms = payload["arms"]
    head = payload["headline"]
    rows = [
        ("cold", arms["cold"]["secs"], arms["cold"]["states"], "1.0x"),
        (
            "warm hit",
            arms["warm_hit"]["secs"],
            arms["warm_hit"]["states"],
            f"{head['warm_vs_cold']:.1f}x",
        ),
    ]
    lines = [
        f"warm-start store, Fig. 5 {ALGORITHM}/{HEURISTIC} "
        f"n={payload['workload']['n']}",
        f"{'arm':<12}{'secs':>10}{'states':>8}{'vs cold':>9}",
        f"{'-' * 12}{'-' * 10:>10}{'-' * 8:>8}{'-' * 9:>9}",
    ]
    for name, secs, states, speedup in rows:
        lines.append(f"{name:<12}{secs:>10.4f}{states:>8}{speedup:>9}")
    return "\n".join(lines)


# -- pytest-benchmark entry points -------------------------------------------


def test_warm_start_speedup(benchmark):
    payload = benchmark.pedantic(
        lambda: measure_headline(rounds=2), rounds=1, iterations=1
    )
    head = payload["headline"]
    benchmark.extra_info["warm_vs_cold"] = head["warm_vs_cold"]
    record_section(
        "Warm-start store — memo hits (Fig. 5 n=6)",
        arms_table(payload)
        + f"\n\nheadline: {head['warm_vs_cold']:.1f}x memo hit "
        f"(target {TARGET_WARM_VS_COLD:.0f}x)",
    )
    write_bench_json(Path(__file__).resolve().parent.parent / JSON_NAME, payload)
    assert head["warm_vs_cold"] >= TARGET_WARM_VS_COLD, (
        f"memo hit only {head['warm_vs_cold']:.1f}x over cold "
        f"(target {TARGET_WARM_VS_COLD}x)"
    )


def test_warm_start_bit_identity(benchmark):
    # small pair, one round: the asserts inside measure_arms are the test
    def run():
        with tempfile.TemporaryDirectory(prefix="tupelo-bench-store-") as tmp:
            return measure_arms(QUICK_N, Path(tmp) / "store", rounds=1)

    row = benchmark.pedantic(run, rounds=1, iterations=1)
    assert row["states"] > 0


# -- standalone CLI -----------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure warm-start store speedups vs cold discovery."
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small pair, one round, no JSON — CI smoke mode",
    )
    parser.add_argument(
        "--rounds", type=int, default=None, help="timing rounds per arm"
    )
    parser.add_argument(
        "--no-json",
        action="store_true",
        help=f"skip writing {JSON_NAME}",
    )
    args = parser.parse_args(argv)
    if args.rounds is not None and args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    rounds = args.rounds if args.rounds else (1 if args.quick else 3)

    if args.quick:
        with tempfile.TemporaryDirectory(prefix="tupelo-bench-store-") as tmp:
            row = measure_arms(QUICK_N, Path(tmp) / "store", rounds=rounds)
        print(
            f"quick n={QUICK_N}: cold {row['cold_secs']:.4f}s, "
            f"warm hit {row['warm_secs']:.4f}s "
            f"({row['warm_vs_cold']:.1f}x); bit-identity held"
        )
        return 0

    payload = measure_headline(rounds=rounds)
    print(arms_table(payload))
    print()
    print("bit-identity: the served mapping matched the cold search")
    head = payload["headline"]
    print(
        f"headline: {head['warm_vs_cold']:.1f}x memo hit "
        f"(target {TARGET_WARM_VS_COLD:.0f}x)"
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
