"""Paper-workload ledger: end-to-end discovery latency plus a traced
per-layer breakdown.

Run from the repository root::

    python3 perfbench/run.py --workload fig5_ida --seed 1 --seconds 10 --trace 0

One run has three phases.

1. **Set-up.**  ``setup_probe.py`` (import ``repro`` and build the
   workload's inputs) runs in fresh interpreters; the median wall time is
   ``setup_s``.  Then the workload is built in this process, the CLI
   task's instances are written as CSV directories, and one untimed
   warm-up round and CLI call fill the caches and record the answers every
   later request must reproduce.
2. **Measurement** for ``--seconds``.  Rounds alternate with CLI calls.  A
   round discovers every task's mapping in-process and executes it on the
   sqlite backend over a larger instance.  A CLI call runs
   ``python -m repro discover`` on the CSV instances, from process start to
   exit.
3. **Report**: one JSON line on stdout.  With ``--trace 0`` it holds the
   end-to-end metrics, measured untraced.  With ``--trace 1`` every
   discovery runs under a tracer and operator probes (see ``layers.py``)
   and the line holds the per-layer metrics instead.

Every discovered mapping is checked: it must contain the target when
applied to the source, match the paper's answer where one is known, and be
identical (text and states examined) to the warm-up's.  Every execution
must equal the in-memory algebra's result, and every CLI call must print
the warm-up's mapping.  A request that fails a check counts in ``failed``.

Every timing is rescaled to nominal host speed by a reference workload
timed beside it (see ``reference.py``); the unscaled medians go to stderr.
End-to-end timings are, for each task, the median over rounds, then the
mean over the workload's tasks; per-layer timings are per task, averaged
over a round, then the median over rounds; counts are per round.  All
temporary files live under ``.perfbench_work/`` in the checkout and are
removed when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from reference import NOMINAL_SECONDS, StartupSamples, reference_seconds

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOADS = (
    "fig5_ida",
    "informed_mix",
    "fig1_flights",
    "store_hit",
)

#: state budget of every discovery (the CLI's default)
BUDGET = 1_000_000
#: timed set-up probes per run (after one untimed probe compiles bytecode)
SETUP_PROBES = 3
#: fewest rounds and CLI calls a run reports a median over
MIN_SAMPLES = 3
#: share of the measured time spent in CLI calls (the rest in rounds)
CLI_SHARE = 0.5
SUBPROCESS_TIMEOUT = 120

END_TO_END = {"discover_ms": "ms", "execute_ms": "ms", "cli_ms": "ms", "setup_s": "s"}

FAMILY_METRICS = ("applied", "failed", "dedup", "kept", "ms")
LAYER_TIMES = (
    "import_ms",
    "discover_traced_ms",
    "problem_setup_ms",
    "search_ms",
    "successors_ms",
    "heuristic_ms",
    "goal_tests_ms",
    "search_other_ms",
    "simplify_ms",
    "store_lookup_ms",
    "sql_compile_ms",
    "sql_execute_ms",
    "algebra_apply_ms",
)
STATS_COUNTS = (
    "states_examined",
    "states_generated",
    "iterations",
    "successor_cache_hits",
    "successor_cache_misses",
    "goal_cache_hits",
    "goal_cache_misses",
    "heuristic_cache_hits",
    "heuristic_cache_misses",
)
LAYER_COUNTS = STATS_COUNTS + ("store_served", "sql_statements", "trace_events")


def per_layer_names() -> list[str]:
    from layers import FAMILIES

    names = list(LAYER_TIMES + LAYER_COUNTS)
    names += [f"ops.{family}.{what}" for family in FAMILIES for what in FAMILY_METRICS]
    return names


def per_layer_unit(name: str) -> str:
    return "ms" if name.endswith("ms") else "count"


class CheckFailed(Exception):
    """A request's output differs from what the checks require."""


def subprocess_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def median(values) -> float:
    return float(statistics.median(values))


def timed(fn, *args, **kwargs):
    """``(fn(*args, **kwargs), wall seconds)``."""
    start = perf_counter()
    out = fn(*args, **kwargs)
    return out, perf_counter() - start


class Ledger:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, traced: bool, work: Path) -> None:
        self.name = workload
        self.seed = seed
        self.traced = traced
        self.work = work
        self.env = subprocess_env()
        self.attempted = 0
        self.failed = 0

    # -- set-up ------------------------------------------------------------

    def setup_probes(self) -> list[dict]:
        """Run the set-up probe; the first run only compiles bytecode."""
        cmd = [
            sys.executable, str(HERE / "setup_probe.py"),
            "--workload", self.name, "--seed", str(self.seed),
        ]

        def probe():
            proc, wall = timed(
                subprocess.run, cmd, cwd=ROOT, env=self.env, capture_output=True,
                text=True, timeout=SUBPROCESS_TIMEOUT,
            )
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            return json.loads(proc.stdout.strip().splitlines()[-1]), wall

        probe()
        samples = StartupSamples(self.env)
        outputs = [samples.time(probe)[0] for _ in range(SETUP_PROBES)]
        samples.close()
        return [
            {"wall_s": wall, "scale": scale, **out}
            for out, (wall, scale) in zip(outputs, samples.scaled())
        ]

    def prepare(self) -> None:
        from repro import SearchConfig, discover_mapping, execute_mapping, parse_expression
        from repro.relational import load_database_dir, save_database
        from repro.semantics import builtin_registry

        import workloads

        self.discover_mapping = discover_mapping
        self.execute_mapping = execute_mapping
        self.config = SearchConfig(max_states=BUDGET)
        self.workload = workloads.build(self.name, self.seed)
        self.store = None
        if self.workload.uses_store:
            from repro.store import open_store

            self.store = open_store(self.work / "store")

        cli = self.workload.cli
        source_dir, target_dir = self.work / "cli_source", self.work / "cli_target"
        save_database(cli.source, source_dir)
        save_database(cli.target, target_dir)
        self.cli_cmd = [
            sys.executable, "-m", "repro", "discover",
            "--source", str(source_dir), "--target", str(target_dir),
            "--budget", str(BUDGET), *cli.args,
        ]
        if self.workload.uses_store:
            self.cli_cmd += ["--store", str(self.work / "cli_store")]

        self.expected_text: dict[int, str] = {}
        self.expected_states: dict[int, int] = {}
        self.expected_exec: dict[int, object] = {}
        self.operators = None
        if self.traced:
            from layers import OperatorProbe

            self.operators = OperatorProbe()
            self.operators.install()

        self.round(warmup=True)
        # The warm-up CLI call fixes the answer every timed call must print;
        # check that answer here against the CSV instances it was found on.
        self.cli_expected = self.cli_call(warmup=True)[0]
        if self.cli_expected is None:
            raise RuntimeError("warm-up CLI call failed")
        mapped = parse_expression(self.cli_expected).apply(
            load_database_dir(source_dir), builtin_registry()
        )
        if not mapped.contains(load_database_dir(target_dir)):
            raise RuntimeError("CLI mapping does not reach the target")

    # -- requests ----------------------------------------------------------

    def discover(self, task, tracer=None):
        return self.discover_mapping(
            task.source,
            task.target,
            algorithm=task.algorithm,
            heuristic=task.heuristic,
            correspondences=task.correspondences,
            registry=task.registry,
            config=self.config,
            tracer=tracer,
            store=self.store,
        )

    def check_discovery(self, index: int, task, result, warmup: bool) -> None:
        if not result.found:
            raise CheckFailed(f"{task.label}: status {result.status}")
        text = str(result.expression)
        if task.expected is not None and text != task.expected:
            raise CheckFailed(f"{task.label}: not the paper's mapping:\n{text}")
        if warmup:
            if not result.expression.apply(task.source, task.registry).contains(task.target):
                raise CheckFailed(f"{task.label}: mapping does not reach the target")
            self.expected_text[index] = text
            self.expected_states[index] = result.stats.states_examined
            self.expected_exec[index] = result.expression.apply(task.exec_source, task.registry)
            return
        if text != self.expected_text[index]:
            raise CheckFailed(f"{task.label}: mapping changed between requests")
        if not result.served_from_store and (
            result.stats.states_examined != self.expected_states[index]
        ):
            raise CheckFailed(f"{task.label}: states examined changed between requests")

    def discover_one(self, index: int, task, rec: dict, warmup: bool):
        sink = tracer = None
        if self.traced:
            from layers import LayerSink
            from repro.obs import Tracer

            sink = LayerSink()
            tracer = Tracer(sink)
            before = self.operators.snapshot()
        repeats = 1 if self.traced or warmup else self.workload.repeats
        self.attempted += repeats
        # Each timed call starts with no garbage left by the one before it.
        gc.collect()
        start = perf_counter()
        results = [self.discover(task, tracer) for _ in range(repeats)]
        seconds = (perf_counter() - start) / repeats
        for result in results:
            self.check_discovery(index, task, result, warmup)
        rec["discover"][index] = seconds
        if self.traced:
            self.record_search_layers(rec, result, sink, before, seconds)
        return result

    def execute_one(self, index: int, task, result, rec: dict) -> None:
        gc.collect()
        executed, seconds = timed(
            self.execute_mapping,
            result.expression, task.exec_source, backend="sqlite", registry=task.registry,
        )
        if executed.database != self.expected_exec[index]:
            raise CheckFailed(f"{task.label}: sqlite result differs from the algebra's")
        rec["execute"][index] = seconds
        if self.traced:
            rec["sql_compile_ms"] += executed.compile_seconds
            rec["sql_execute_ms"] += executed.execute_seconds
            rec["sql_statements"] += executed.script.statement_count
            _, apply_seconds = timed(result.expression.apply, task.exec_source, task.registry)
            rec["algebra_apply_ms"] += apply_seconds

    def record_search_layers(self, rec, result, sink, before, discover_s) -> None:
        from layers import FAMILIES

        stats = result.stats
        spans = sink.span_seconds
        phases = {
            "successors_ms": getattr(stats, "time_in_successors", 0.0),
            "heuristic_ms": getattr(stats, "time_in_heuristic", 0.0),
            "goal_tests_ms": getattr(stats, "time_in_goal_tests", 0.0),
        }
        rec["discover_traced_ms"] += discover_s
        rec["problem_setup_ms"] += spans.get("setup", 0.0)
        rec["search_ms"] += spans.get("search", 0.0)
        for name, seconds in phases.items():
            rec[name] += seconds
        rec["search_other_ms"] += max(0.0, spans.get("search", 0.0) - sum(phases.values()))
        rec["simplify_ms"] += spans.get("simplify", 0.0)
        rec["store_lookup_ms"] += spans.get("store_lookup", 0.0)
        for name in STATS_COUNTS:
            rec[name] += getattr(stats, name, 0)
        rec["store_served"] += int(bool(getattr(result, "served_from_store", False)))
        rec["trace_events"] += sink.events

        applied, failed, seconds = self.operators.snapshot()
        for family in FAMILIES:
            n_applied = applied[family] - before[0][family]
            n_failed = failed[family] - before[1][family]
            kept = sink.kept.get(family, 0)
            rec[f"ops.{family}.applied"] += n_applied
            rec[f"ops.{family}.failed"] += n_failed
            rec[f"ops.{family}.kept"] += kept
            rec[f"ops.{family}.dedup"] += n_applied - n_failed - kept
            rec[f"ops.{family}.ms"] += seconds.get(family, 0.0) - before[2].get(family, 0.0)

    def round(self, warmup: bool = False) -> dict:
        """Discover every task's mapping, then execute each one.

        Returns per-task seconds under ``"discover"`` and ``"execute"``
        (task index -> seconds), the host-speed scale of each phase under
        ``"discover_scale"`` and ``"execute_scale"`` and of the whole round
        under ``"scale"``, and, when traced, per-layer sums.
        """
        rec: dict = defaultdict(float, discover={}, execute={})
        tasks = self.workload.tasks
        found = {}
        references = [reference_seconds()]
        for index, task in enumerate(tasks):
            try:
                found[index] = self.discover_one(index, task, rec, warmup)
            except Exception:
                self.failed += 1
                traceback.print_exc()
        references.append(reference_seconds())
        for index, result in found.items():
            try:
                self.execute_one(index, tasks[index], result, rec)
            except Exception:
                self.failed += 1
                traceback.print_exc()
        references.append(reference_seconds())
        first, middle, last = references
        rec["discover_scale"] = 2.0 * NOMINAL_SECONDS / (first + middle)
        rec["execute_scale"] = 2.0 * NOMINAL_SECONDS / (middle + last)
        rec["scale"] = 2.0 * NOMINAL_SECONDS / (first + last)
        return rec

    def cli_call(self, warmup: bool = False) -> tuple[str | None, float]:
        """``(printed mapping or None on failure, wall seconds)``."""
        self.attempted += 1
        proc, wall = timed(
            subprocess.run, self.cli_cmd, cwd=ROOT, env=self.env, capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT,
        )
        parts = proc.stdout.split("\n\n", 1)
        text = parts[1].strip() if proc.returncode == 0 and len(parts) == 2 else None
        if text is None or (not warmup and text != self.cli_expected):
            self.failed += 1
            print(f"CLI call failed (exit {proc.returncode}):\n{proc.stdout}{proc.stderr}",
                  file=sys.stderr)
            return None, wall
        return text, wall

    # -- the run -----------------------------------------------------------

    def run(self, seconds: float) -> dict:
        probes = self.setup_probes()
        self.prepare()
        # The workload's inputs and the warm caches stay alive all run; keep
        # them out of the collector's way so timed calls pay only for the
        # garbage they make themselves.
        gc.collect()
        gc.freeze()
        rounds: list[dict] = []
        cli = StartupSamples(self.env)
        round_seconds = cli_seconds = 0.0
        deadline = perf_counter() + seconds
        while True:
            rec, wall = timed(self.round)
            rounds.append(rec)
            round_seconds += wall
            # CLI calls take their share of the run whatever a round costs.
            while not self.traced and (
                len(cli.samples) < min(len(rounds), MIN_SAMPLES)
                or cli_seconds < round_seconds * CLI_SHARE / (1.0 - CLI_SHARE)
            ):
                _, spent = timed(cli.time, self.cli_call)
                cli_seconds += spent
            if perf_counter() >= deadline and len(rounds) >= MIN_SAMPLES:
                break
        if not self.traced:
            cli.close()

        n_tasks = len(self.workload.tasks)

        def rescaled(pairs, scaled=True):
            return median(value * scale if scaled else value for value, scale in pairs)

        def per_task_ms(kind, scaled=True):
            """Mean over the tasks of each task's median time across rounds."""
            medians = [
                rescaled(
                    [(rec[kind][i], rec[f"{kind}_scale"]) for rec in rounds if i in rec[kind]],
                    scaled,
                )
                for i in range(n_tasks)
                if any(i in rec[kind] for rec in rounds)
            ]
            # No task ever succeeded: the run reports correct=false anyway.
            return 1000.0 * sum(medians) / len(medians) if medians else 0.0

        if self.traced:
            names = per_layer_names()
            values = {}
            for name in names:
                if per_layer_unit(name) == "ms":
                    pairs = [(rec[name] * 1000.0 / n_tasks, rec["scale"]) for rec in rounds]
                    values[name] = rescaled(pairs)
                else:
                    values[name] = median(rec[name] for rec in rounds)
            values["import_ms"] = rescaled(
                [(p["import_s"] * 1000.0, p["scale"]) for p in probes]
            )
            units = {name: per_layer_unit(name) for name in names}
        else:
            def end_to_end(scaled):
                return {
                    "discover_ms": per_task_ms("discover", scaled),
                    "execute_ms": per_task_ms("execute", scaled),
                    "cli_ms": rescaled([(w * 1000.0, s) for w, s in cli.scaled()], scaled),
                    "setup_s": rescaled([(p["wall_s"], p["scale"]) for p in probes], scaled),
                }

            values, units = end_to_end(True), END_TO_END
            print("unscaled medians: " + json.dumps(end_to_end(False)), file=sys.stderr)
        host = median(rec["scale"] for rec in rounds)
        print(
            f"{self.name} seed={self.seed}: {len(rounds)} round(s) of "
            f"{len(self.workload.tasks)} task(s), {len(cli.samples)} CLI call(s), "
            f"host speed {host:.3f}x nominal",
            file=sys.stderr,
        )
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": values[name], "unit": units[name]} for name in values
            },
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program at {SRC / 'repro'}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        result = Ledger(args.workload, args.seed, bool(args.trace), work).run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
