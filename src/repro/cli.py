"""Command-line interface for TUPELO.

Critical instances live as directories of CSV files (one relation per
file, header row = attributes), mirroring the paper's GUI inputs (Fig. 3).

Commands::

    python -m repro discover (--source DIR --target DIR | --synthetic N)
        [--algorithm rbfs] [--heuristic h1] [--k K] [--budget N]
        [--deadline SECONDS] [--correspondence "Total<-add(Cost,Fee)"]...
        [--show-matching] [--show-sql] [--execute] [--backend NAME]
        [--output FILE] [--trace FILE] [--progress] [--store DIR]

    python -m repro experiments --sizes 1 2 3 4
        [--algorithm ida]... [--heuristic h1] [--k K] [--budget N]
        [--deadline SECONDS] [--workers N]
        [--start-method fork|forkserver|spawn] [--trace-dir DIR]
        [--store DIR] [--output FILE]

    python -m repro apply --expression FILE --source DIR [--output DIR]

    python -m repro execute --expression FILE --source DIR
        [--backend auto|minisql|sqlite] [--deadline SECONDS]
        [--show-sql] [--output DIR]

    python -m repro tnf --source DIR

    python -m repro trace (--source DIR --target DIR | --synthetic N)
        --output FILE [--algorithm ida] [--heuristic h0] [--k K]
        [--budget N]

    python -m repro trace --inspect FILE

    python -m repro trace --merge PATH... [--output FILE]

    python -m repro trace --collapse FILE [--output FILE]

    python -m repro store info --path DIR

    python -m repro store gc --path DIR [--max-entries N]

    python -m repro info

Exit codes: 0 success, 1 no mapping found, 2 usage / input error,
3 wall-clock deadline exceeded (``--deadline``; partial statistics were
still reported).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import TupeloError
from .heuristics.registry import EXTENSION_HEURISTIC_NAMES, HEURISTIC_NAMES

if TYPE_CHECKING:
    from .fira.expression import MappingExpression
    from .obs.sinks import JsonlSink

#: process exit code for a deadline-cut search (distinct from "not found")
EXIT_DEADLINE_EXCEEDED = 3

#: :data:`repro.search.engine.ALGORITHM_NAMES`, spelled out so that building
#: the parser does not load the search engine (a test keeps the two equal)
ALGORITHM_NAMES: tuple[str, ...] = ("ida", "rbfs", "astar", "greedy", "beam")


def _parse_correspondence_arg(text: str):
    """Accept both the TNF encoding and the bare 'Out<-fn(A,B)' form."""
    from .semantics import decode_correspondence

    if not text.startswith("λ:"):
        text = "λ:" + text
    return decode_correspondence(text)


def _number(convert, valid, expected: str):
    """An argparse ``type=``: parse with *convert*, accept finite values
    passing *valid*; anything else is a usage error (exit 2)."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not (math.isfinite(value) and valid(value)):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return value

    return parse


#: --budget and --sizes
_count = _number(int, lambda value: value >= 1, "an integer >= 1")
#: --deadline
_seconds = _number(float, lambda value: value > 0, "a number of seconds > 0")
#: --k: the scaled heuristics map a similarity in [0, 1] onto [0, k]
_scale = _number(float, lambda value: value >= 1, "a scaling constant >= 1")


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TUPELO — data mapping as search (EDBT 2006 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    discover = sub.add_parser(
        "discover", help="discover a mapping between two critical instances"
    )
    discover.add_argument("--source", default=None, help="source CSV directory")
    discover.add_argument("--target", default=None, help="target CSV directory")
    discover.add_argument(
        "--synthetic",
        type=int,
        default=None,
        metavar="N",
        help="discover on the size-N synthetic matching workload instead of "
        "CSV instances",
    )
    discover.add_argument(
        "--algorithm", default="rbfs", choices=sorted(ALGORITHM_NAMES)
    )
    discover.add_argument(
        "--heuristic",
        default="h1",
        choices=sorted(HEURISTIC_NAMES + EXTENSION_HEURISTIC_NAMES),
    )
    discover.add_argument("--k", type=_scale, default=None, help="scaling constant")
    discover.add_argument(
        "--budget", type=_count, default=1_000_000, help="max states examined"
    )
    discover.add_argument(
        "--deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline; a cut run reports partial stats and "
        f"exits {EXIT_DEADLINE_EXCEEDED}",
    )
    discover.add_argument(
        "--correspondence",
        action="append",
        default=[],
        metavar="OUT<-FN(IN,..)",
        help="declare a complex semantic correspondence (repeatable)",
    )
    discover.add_argument(
        "--show-matching",
        action="store_true",
        help="also print the induced schema matching",
    )
    discover.add_argument(
        "--show-sql", action="store_true", help="also print the SQL compilation"
    )
    discover.add_argument(
        "--execute",
        action="store_true",
        help="also execute the discovered mapping on an SQL backend and "
        "print the resulting instance",
    )
    discover.add_argument(
        "--backend",
        default="auto",
        metavar="NAME",
        help="execution backend for --execute (auto takes sqlite when it "
        "runs the mapping faithfully, else minisql; see `repro info`)",
    )
    discover.add_argument(
        "--output", default=None, help="write the expression to this file"
    )
    discover.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record a JSONL event trace of the search to FILE",
    )
    discover.add_argument(
        "--progress",
        action="store_true",
        help="stream a live progress line (examined/depth/frontier/best-f) "
        "to stderr while the search runs",
    )
    discover.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="warm-start store directory: serve memoised mappings "
        "(re-verified against this pair) and record this run's mapping "
        "for the next one",
    )

    experiments = sub.add_parser(
        "experiments",
        help="run the synthetic matching sweep (Fig. 5), optionally in parallel",
    )
    experiments.add_argument(
        "--sizes",
        type=_count,
        nargs="+",
        required=True,
        metavar="N",
        help="synthetic schema sizes to measure",
    )
    experiments.add_argument(
        "--algorithm",
        action="append",
        default=[],
        choices=sorted(ALGORITHM_NAMES),
        help="algorithm(s) to sweep (repeatable; default: ida)",
    )
    experiments.add_argument(
        "--heuristic",
        default="h1",
        choices=sorted(HEURISTIC_NAMES + EXTENSION_HEURISTIC_NAMES),
    )
    experiments.add_argument("--k", type=_scale, default=None, help="scaling constant")
    experiments.add_argument(
        "--budget", type=_count, default=1_000_000, help="max states per point"
    )
    experiments.add_argument(
        "--deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock deadline; cut points land with status "
        "deadline_exceeded and partial counters",
    )
    experiments.add_argument(
        "--workers",
        type=int,
        default=0,
        metavar="N",
        help="shard points across N worker processes (0 = serial)",
    )
    experiments.add_argument(
        "--start-method",
        default=None,
        choices=["fork", "forkserver", "spawn"],
        help="multiprocessing start method (default: best available)",
    )
    experiments.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="persist a JSONL trace per measured point under DIR",
    )
    experiments.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="shared warm-start store for every measured point "
        "(serial and parallel sweeps alike)",
    )
    experiments.add_argument(
        "--output", default=None, metavar="FILE", help="archive the series as JSON"
    )

    apply_cmd = sub.add_parser(
        "apply", help="execute a mapping expression on a source instance"
    )
    apply_cmd.add_argument("--expression", required=True, help="expression file")
    apply_cmd.add_argument("--source", required=True, help="source CSV directory")
    apply_cmd.add_argument(
        "--output", default=None, help="write result CSVs here (default: print)"
    )

    execute = sub.add_parser(
        "execute",
        help="execute a mapping expression on an SQL backend "
        "(compile + run + read back)",
    )
    execute.add_argument("--expression", required=True, help="expression file")
    execute.add_argument("--source", required=True, help="source CSV directory")
    execute.add_argument(
        "--backend",
        default="auto",
        metavar="NAME",
        help="backend name or 'auto' (sqlite when it runs the mapping "
        "faithfully, else minisql; see `repro info` for the list)",
    )
    execute.add_argument(
        "--deadline",
        type=_seconds,
        default=None,
        metavar="SECONDS",
        help="wall-clock deadline for script execution; a cut run exits "
        f"{EXIT_DEADLINE_EXCEEDED}",
    )
    execute.add_argument(
        "--show-sql",
        action="store_true",
        help="also print the compiled script (in the backend's dialect)",
    )
    execute.add_argument(
        "--output", default=None, help="write result CSVs here (default: print)"
    )

    tnf = sub.add_parser("tnf", help="print the TNF encoding of an instance")
    tnf.add_argument("--source", required=True, help="source CSV directory")

    trace = sub.add_parser(
        "trace",
        help="record a JSONL search trace and pretty-print its run profile",
    )
    trace.add_argument("--source", default=None, help="source CSV directory")
    trace.add_argument("--target", default=None, help="target CSV directory")
    trace.add_argument(
        "--synthetic",
        type=int,
        default=None,
        metavar="N",
        help="trace the size-N synthetic matching workload (Fig. 5) instead "
        "of CSV instances",
    )
    trace.add_argument(
        "--algorithm", default="ida", choices=sorted(ALGORITHM_NAMES)
    )
    trace.add_argument(
        "--heuristic",
        default="h0",
        choices=sorted(HEURISTIC_NAMES + EXTENSION_HEURISTIC_NAMES),
    )
    trace.add_argument("--k", type=_scale, default=None, help="scaling constant")
    trace.add_argument(
        "--budget", type=_count, default=1_000_000, help="max states examined"
    )
    trace.add_argument(
        "--output", default=None, metavar="FILE", help="JSONL trace destination"
    )
    trace.add_argument(
        "--inspect",
        default=None,
        metavar="FILE",
        help="skip searching: validate an existing trace and print its profile",
    )
    trace.add_argument(
        "--merge",
        nargs="+",
        default=None,
        metavar="PATH",
        help="merge per-worker JSONL traces (files or directories "
        "of *.jsonl) into one causally-ordered timeline; with --output, "
        "write the merged trace there",
    )
    trace.add_argument(
        "--collapse",
        default=None,
        metavar="FILE",
        help="export an existing trace's span tree as collapsed stacks "
        "(pipe to flamegraph.pl or import into speedscope)",
    )

    store = sub.add_parser(
        "store", help="inspect or compact a warm-start store directory"
    )
    store.add_argument(
        "action",
        choices=["info", "gc"],
        help="info: summarise the mapping memo; gc: compact the memo",
    )
    store.add_argument(
        "--path", required=True, metavar="DIR", help="store directory"
    )
    store.add_argument(
        "--max-entries",
        type=int,
        default=None,
        metavar="N",
        help="gc: keep at most N memoised pairs (default: store default)",
    )

    sub.add_parser("info", help="list available algorithms and heuristics")
    return parser


def _open_trace_sink(path: str) -> JsonlSink | int:
    """Open a JSONL sink, or print a clean error and return exit code 2."""
    from .obs import JsonlSink

    try:
        return JsonlSink(path)
    except OSError as err:
        print(f"error: cannot write trace to {path}: {err}", file=sys.stderr)
        return 2


def _load_pair(args: argparse.Namespace) -> tuple | int:
    """Load the pair named by ``--synthetic N`` or ``--source``/``--target``.

    Returns ``(source, target, workload label)``, or exit code 2 after
    printing the usage error.
    """
    if args.synthetic is not None:
        if args.source or args.target:
            print(
                "error: --synthetic cannot be combined with --source/--target",
                file=sys.stderr,
            )
            return 2
        if args.synthetic < 1:
            print("error: --synthetic needs a size >= 1", file=sys.stderr)
            return 2
        from .workloads import matching_pair

        pair = matching_pair(args.synthetic)
        return pair.source, pair.target, f"synthetic matching n={args.synthetic}"
    if args.source and args.target:
        from .relational import load_database_dir

        source = load_database_dir(args.source)
        target = load_database_dir(args.target)
        return source, target, f"{args.source} -> {args.target}"
    print(
        f"error: {args.command} needs either --synthetic N or --source and "
        "--target",
        file=sys.stderr,
    )
    return 2


def _print_mapping(args: argparse.Namespace, expression, source) -> int:
    """The output tail of a found discovery."""
    from .semantics import builtin_registry

    print()
    print(expression if not expression.is_identity else "(identity)")
    if args.show_matching:
        from .fira import extract_matching

        print()
        print("# induced schema matching")
        print(extract_matching(expression))
    if args.show_sql:
        from .fira import compile_expression

        print()
        print(compile_expression(expression, source, builtin_registry()))
    if args.execute:
        from .backends import execute_mapping

        executed = execute_mapping(
            expression, source, backend=args.backend, registry=builtin_registry()
        )
        print()
        print(
            f"executed on backend {executed.backend} "
            f"({executed.script.statement_count} statement(s), "
            f"{executed.execute_seconds * 1000:.1f} ms)"
        )
        print()
        print(executed.database.to_text())
    if args.output:
        Path(args.output).write_text(str(expression) + "\n")
        print(f"\nexpression written to {args.output}")
    return 0


def cmd_discover(args: argparse.Namespace) -> int:
    """Run mapping discovery between two CSV-directory instances."""
    pair = _load_pair(args)
    if isinstance(pair, int):
        return pair
    source, target, _workload = pair
    correspondences = [
        _parse_correspondence_arg(text) for text in args.correspondence
    ]
    if args.backend != "auto":
        # Validate the backend name up front so a typo fails before the
        # search spends its budget (UnknownBackendError -> exit 2).
        from .backends import get_backend

        get_backend(args.backend)
    from .search import SearchConfig, discover_mapping

    tracer = None
    if args.trace:
        from .obs import Tracer

        sink = _open_trace_sink(args.trace)
        if isinstance(sink, int):
            return sink
        tracer = Tracer(sink)
    progress = None
    if args.progress:
        from .obs import ConsoleProgress

        progress = ConsoleProgress()
    try:
        result = discover_mapping(
            source,
            target,
            algorithm=args.algorithm,
            heuristic=args.heuristic,
            k=args.k,
            correspondences=correspondences,
            config=SearchConfig(
                max_states=args.budget, deadline_seconds=args.deadline
            ),
            tracer=tracer,
            progress=progress,
            store=args.store,
        )
    finally:
        if tracer is not None:
            tracer.close()
    print(
        f"status: {result.status}  "
        f"(states examined: {result.stats.states_examined}, "
        f"{result.stats.elapsed * 1000:.1f} ms)"
    )
    if result.served_from_store:
        print(f"served from warm-start store {args.store} (verified)")
    if args.trace:
        print(f"trace written to {args.trace}")
    if result.deadline_exceeded:
        print(
            f"deadline of {args.deadline:g}s cut the search at frontier "
            f"depth {result.frontier_depth}",
            file=sys.stderr,
        )
        return EXIT_DEADLINE_EXCEEDED
    if not result.found:
        return 1
    return _print_mapping(args, result.expression, source)


def cmd_experiments(args: argparse.Namespace) -> int:
    """Run the synthetic matching sweep, optionally across worker processes."""
    from .experiments import (
        cache_summary_table,
        run_matching_series,
        save_series,
        series_table,
        trace_index_table,
    )

    algorithms = args.algorithm or ["ida"]
    series_list = [
        run_matching_series(
            algorithm,
            args.heuristic,
            args.sizes,
            budget=args.budget,
            k=args.k,
            trace_dir=args.trace_dir,
            workers=args.workers,
            start_method=args.start_method,
            deadline_seconds=args.deadline,
            store=args.store,
        )
        for algorithm in algorithms
    ]
    print(series_table(series_list, x_label="n"))
    print()
    print(cache_summary_table(series_list))
    if args.trace_dir:
        print()
        print(trace_index_table(series_list))
    if args.output:
        save_series(
            args.output,
            series_list,
            metadata={
                "experiment": "matching",
                "sizes": list(args.sizes),
                "budget": args.budget,
                "workers": args.workers,
                "deadline": args.deadline,
            },
        )
        print(f"\nseries archived to {args.output}")
    return 0


def _read_expression(path: str) -> MappingExpression | int:
    """Parse an expression file, or print a clean error and return exit code 2."""
    from .fira import parse_expression

    try:
        text = Path(path).read_text()
    except OSError as err:
        print(f"error: cannot read expression {path}: {err}", file=sys.stderr)
        return 2
    return parse_expression(text)


def cmd_apply(args: argparse.Namespace) -> int:
    """Execute a stored mapping expression on a source instance."""
    from .relational import load_database_dir, save_database
    from .semantics import builtin_registry

    expression = _read_expression(args.expression)
    if isinstance(expression, int):
        return expression
    source = load_database_dir(args.source)
    mapped = expression.apply(source, builtin_registry())
    if args.output:
        paths = save_database(mapped, args.output)
        print(f"wrote {len(paths)} relation(s) to {args.output}")
    else:
        print(mapped.to_text())
    return 0


def cmd_execute(args: argparse.Namespace) -> int:
    """Run a stored mapping expression through an SQL execution backend."""
    from .backends import execute_mapping
    from .errors import SearchDeadlineExceeded
    from .relational import load_database_dir, save_database
    from .semantics import builtin_registry

    expression = _read_expression(args.expression)
    if isinstance(expression, int):
        return expression
    source = load_database_dir(args.source)
    try:
        result = execute_mapping(
            expression,
            source,
            backend=args.backend,
            registry=builtin_registry(),
            deadline=args.deadline,
        )
    except SearchDeadlineExceeded as err:
        print(
            f"deadline of {args.deadline:g}s cut execution after "
            f"{err.states_examined} statement(s)",
            file=sys.stderr,
        )
        return EXIT_DEADLINE_EXCEEDED
    print(
        f"backend: {result.backend}  "
        f"({result.script.statement_count} statement(s), "
        f"compile {result.compile_seconds * 1000:.1f} ms, "
        f"execute {result.execute_seconds * 1000:.1f} ms)"
    )
    if args.show_sql:
        print()
        print(result.script.text)
    if args.output:
        paths = save_database(result.database, args.output)
        print(f"wrote {len(paths)} relation(s) to {args.output}")
    else:
        print()
        print(result.database.to_text())
    return 0


def cmd_tnf(args: argparse.Namespace) -> int:
    """Print the TNF encoding of an instance."""
    from .relational import load_database_dir, tnf_encode

    source = load_database_dir(args.source)
    print(tnf_encode(source).to_text())
    return 0


def _trace_merge(args: argparse.Namespace) -> int:
    """Merge per-process traces into one causally-ordered timeline."""
    from .obs import discover_trace_files, merge_report, merge_traces, write_merged

    paths: list[Path] = []
    for target in args.merge:
        paths.extend(discover_trace_files(target))
    if not paths:
        print(
            f"error: --merge found no .jsonl trace files in {args.merge}",
            file=sys.stderr,
        )
        return 2
    try:
        merged = merge_traces(paths)
    except OSError as err:
        print(f"error: cannot read trace: {err}", file=sys.stderr)
        return 2
    print(merge_report(merged))
    if args.output:
        try:
            write_merged(merged, args.output)
        except OSError as err:
            print(
                f"error: cannot write merged trace to {args.output}: {err}",
                file=sys.stderr,
            )
            return 2
        print(f"\nmerged trace written to {args.output}")
    return 0


def _trace_collapse(args: argparse.Namespace) -> int:
    """Export a trace's span tree in collapsed-stack format."""
    from .obs import build_span_tree, collapsed_stacks, load_trace

    try:
        events = load_trace(args.collapse)
    except OSError as err:
        print(f"error: cannot read trace {args.collapse}: {err}", file=sys.stderr)
        return 2
    roots = build_span_tree(events)
    if not roots:
        print(
            f"error: {args.collapse}: no span events to collapse "
            "(trace predates the span subsystem?)",
            file=sys.stderr,
        )
        return 2
    lines = collapsed_stacks(roots)
    if args.output:
        Path(args.output).write_text("\n".join(lines) + "\n")
        print(f"{len(lines)} collapsed stack(s) written to {args.output}")
    else:
        for line in lines:
            print(line)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Record a JSONL search trace (or inspect/merge/collapse existing ones)."""
    if args.merge:
        return _trace_merge(args)
    if args.collapse:
        return _trace_collapse(args)
    from .obs import SCHEMA_VERSION, Tracer, load_trace, run_profile, validate_events

    if args.inspect:
        try:
            events = load_trace(args.inspect)
        except OSError as err:
            print(
                f"error: cannot read trace {args.inspect}: {err}",
                file=sys.stderr,
            )
            return 2
        if not events:
            print(
                f"error: {args.inspect}: trace holds no run events "
                "(header-only file — did the traced run start?)",
                file=sys.stderr,
            )
            return 2
        print(f"{args.inspect}: {len(events)} event(s), schema v{SCHEMA_VERSION}")
        print()
        print(run_profile(events))
        return 0

    pair = _load_pair(args)
    if isinstance(pair, int):
        return pair
    source, target, workload = pair
    if not args.output:
        print("error: trace needs --output FILE to record into", file=sys.stderr)
        return 2

    from .search import SearchConfig, discover_mapping

    sink = _open_trace_sink(args.output)
    if isinstance(sink, int):
        return sink
    with Tracer(sink) as tracer:
        result = discover_mapping(
            source,
            target,
            algorithm=args.algorithm,
            heuristic=args.heuristic,
            k=args.k,
            config=SearchConfig(max_states=args.budget),
            simplify=False,
            tracer=tracer,
        )
    events = load_trace(args.output)
    validate_events(events)
    print(f"traced {workload}: {len(events)} event(s) -> {args.output}")
    print()
    print(run_profile(events))
    return 0 if result.found else 1


def cmd_store(args: argparse.Namespace) -> int:
    """Inspect (``info``) or compact (``gc``) a warm-start store directory."""
    from .store import open_store

    store = open_store(args.path)
    if args.action == "info":
        info = store.info()
        memo = info["memo"]
        print(f"store: {info['path']}")
        print(
            f"memo: {memo['entries']} entr(ies) across {memo['fingerprints']} "
            f"pair(s), {memo['bytes']} byte(s), version {memo['version']}"
            + (f", {memo['corrupt_lines']} corrupt line(s) skipped"
               if memo["corrupt_lines"] else "")
        )
        return 0
    if args.max_entries is not None and args.max_entries < 1:
        print("error: --max-entries needs N >= 1", file=sys.stderr)
        return 2
    if args.max_entries is not None:
        store.memo.max_entries = args.max_entries
    summary = store.gc()
    memo = summary["memo"]
    print(
        f"memo: kept {memo['kept']} entr(ies), dropped {memo['dropped']} "
        f"({memo['bytes_before']} -> {memo['bytes_after']} bytes)"
    )
    return 0


def cmd_info(_args: argparse.Namespace) -> int:
    """List available algorithms, heuristics, and telemetry capabilities."""
    from .obs import EVENT_TYPES, SCHEMA_VERSION, SINK_NAMES

    print("algorithms: " + ", ".join(ALGORITHM_NAMES))
    print("heuristics: " + ", ".join(HEURISTIC_NAMES))
    print("extensions: " + ", ".join(EXTENSION_HEURISTIC_NAMES))
    print(f"telemetry: structured tracing (schema v{SCHEMA_VERSION}), "
          "run counters on SearchStats (replayable from a trace)")
    from .serialize import FAST_JSON_BACKEND

    print(f"json backend: {FAST_JSON_BACKEND}")
    print("sinks: " + ", ".join(SINK_NAMES))
    print("events: " + ", ".join(EVENT_TYPES))
    from .backends import backend_names

    print("backends: " + ", ".join(backend_names()))
    from .parallel import (
        available_start_methods,
        cpu_count,
        default_workers,
        preferred_start_method,
    )

    methods = ", ".join(
        f"{m}*" if m == preferred_start_method() else m
        for m in available_start_methods()
    )
    print(
        f"parallel: {cpu_count()} cpu(s), default workers {default_workers()}, "
        f"start methods: {methods} (* = preferred)"
    )
    from .store import DEFAULT_MAX_ENTRIES

    print(
        "caches: one search node per state for the search's life (successors, "
        "goal, estimate); per-cache hit/miss counters in experiment reports"
    )
    print(
        f"store: mapping memo via --store DIR (default bound: "
        f"{DEFAULT_MAX_ENTRIES} pairs)"
    )
    return 0


_COMMANDS = {
    "discover": cmd_discover,
    "experiments": cmd_experiments,
    "apply": cmd_apply,
    "execute": cmd_execute,
    "tnf": cmd_tnf,
    "trace": cmd_trace,
    "store": cmd_store,
    "info": cmd_info,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        code = _COMMANDS[args.command](args)
        # a reader that closed the pipe (`repro info | head`) then raises
        # here, inside the try, rather than at the flush on exit
        sys.stdout.flush()
        return code
    except TupeloError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # what stdout still buffers would fail again at exit: send it nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
