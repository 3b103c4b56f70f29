"""The TUPELO facade: discover data mappings between critical instances.

This is the public entry point mirroring Fig. 2 of the paper: inputs are
critical instances of the source and target schemas plus declarations of
any complex semantic correspondences; output is an executable mapping
expression in L together with search statistics.
"""

from __future__ import annotations

import gc
from contextlib import nullcontext
from typing import TYPE_CHECKING, Callable, Sequence

from .._lazy import lazy_registry
from ..errors import (
    MappingNotFound,
    SearchBudgetExceeded,
    SearchCancelled,
    SearchDeadlineExceeded,
    UnknownAlgorithmError,
)
from ..fira.base import Operator
from ..fira.expression import MappingExpression
from ..heuristics.base import Heuristic
from ..heuristics.registry import make_heuristic
from ..obs.events import SEARCH_END, SEARCH_START, SOLUTION
from ..obs.tracer import NULL_TRACER, Tracer
from ..relational.database import Database
from ..semantics.functions import FunctionRegistry
from .config import SearchConfig
from .problem import MappingProblem
from .result import (
    STATUS_BUDGET_EXCEEDED,
    STATUS_CANCELLED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_FOUND,
    STATUS_NOT_FOUND,
    SearchResult,
)
from .simplify import simplify_expression
from .stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.progress import ProgressSink
    from ..semantics.correspondence import Correspondence
    from .cancel import CancelToken

SearchAlgorithm = Callable[[MappingProblem, Heuristic, SearchStats], "list[Operator]"]

#: where each algorithm is defined; "ida" and "rbfs" are the paper's, the
#: rest ablations.  ``ALGORITHMS`` maps each name to its function.
_ALGORITHM_SITES: dict[str, tuple[str, str]] = {
    "ida": (".ida", "ida_star"),
    "rbfs": (".recursive_best_first", "rbfs"),
    "astar": (".best_first", "a_star"),
    "greedy": (".best_first", "greedy"),
    "beam": (".beam", "beam_search"),
}
_algorithm_function, __getattr__ = lazy_registry(
    __name__, "ALGORITHMS", _ALGORITHM_SITES
)

ALGORITHM_NAMES: tuple[str, ...] = tuple(_ALGORITHM_SITES)


def discover_mapping(
    source: Database,
    target: Database,
    algorithm: str = "rbfs",
    heuristic: str = "h1",
    k: float | None = None,
    correspondences: Sequence[Correspondence] = (),
    registry: FunctionRegistry | None = None,
    config: SearchConfig | None = None,
    simplify: bool = True,
    tracer: Tracer | None = None,
    cancel: CancelToken | None = None,
    progress: "ProgressSink | Callable | None" = None,
    store=None,
) -> SearchResult:
    """Discover a mapping expression from *source* to *target*.

    Args:
        source: source critical instance.
        target: target critical instance (same information, per the
            Rosetta Stone principle).
        algorithm: one of :data:`ALGORITHM_NAMES`.
        heuristic: one of :data:`~repro.heuristics.HEURISTIC_NAMES`.
        k: scaling-constant override for the scaled heuristics; defaults to
            the paper's tuned value for the chosen algorithm.
        correspondences: declared complex semantic correspondences (§4).
        registry: semantic function registry (defaults to the built-ins).
        config: search configuration (budget, pruning, deadline).
        simplify: post-process the discovered path, deleting operators not
            needed for the goal (does not affect the search statistics).
        tracer: optional :class:`~repro.obs.tracer.Tracer`; the run emits
            the full event stream (``search_start`` ... ``search_end``)
            into its sink.  The caller keeps ownership: close the sink
            after the call if it holds a file.
        cancel: optional :class:`~repro.search.cancel.CancelToken`; setting
            it (from any thread) makes the search unwind cooperatively
            with a ``cancelled`` result carrying the partial stats.
        progress: optional live-progress hook — a
            :class:`~repro.obs.progress.ProgressSink` or a plain callable
            taking a :class:`~repro.obs.progress.ProgressUpdate`.  Called
            on the search thread every
            :data:`~repro.search.stats.LIMIT_CHECK_EVERY` examinations
            (piggybacked on the existing limit polls); its ``finish()``
            hook fires once when the run ends, whatever the status.
        store: optional warm-start store — a
            :class:`~repro.store.WarmStartStore` or a directory path.
            Before searching, the store's mapping memo is consulted (a hit
            is re-verified against *source*/*target* and returned with
            ``served_from_store=True``); on a miss the discovered mapping
            is recorded for the next request.  All store traffic is
            best-effort.

    Returns:
        A :class:`SearchResult`; check ``result.found`` / ``result.status``.
        A run bounded by ``config.deadline_seconds`` that runs out of time
        returns status ``deadline_exceeded`` with intact
        :class:`~repro.search.stats.SearchStats` (states examined, max
        frontier depth, cache counters, phase timers).  Such a run holds
        off the cyclic garbage collector until it returns
        (``docs/robustness.md``).
    """
    config = config if config is not None else SearchConfig()
    # A collector pass cannot be cut short by a deadline poll, and late in
    # a long-lived process one full pass outlasts a deadline's slack.  A
    # search builds no reference cycles, so a bounded run holds the
    # collector off; _discover's frame, and with it the search graph, is
    # freed by reference counting before the collector resumes.
    pause = config.deadline_seconds is not None and gc.isenabled()
    if pause:
        gc.disable()
    try:
        return _discover(
            source, target, algorithm, heuristic, k, correspondences,
            registry, config, simplify, tracer, cancel, progress, store,
        )
    finally:
        if pause:
            gc.enable()


def _discover(
    source: Database,
    target: Database,
    algorithm: str,
    heuristic: str,
    k: float | None,
    correspondences: Sequence[Correspondence],
    registry: FunctionRegistry | None,
    config: SearchConfig,
    simplify: bool,
    tracer: Tracer | None,
    cancel: CancelToken | None,
    progress: "ProgressSink | Callable | None",
    store,
) -> SearchResult:
    """:func:`discover_mapping` with its defaults resolved."""
    algorithm = algorithm.lower()
    if algorithm not in _ALGORITHM_SITES:
        raise UnknownAlgorithmError(algorithm, ALGORITHM_NAMES)
    run_tracer = tracer if tracer is not None else NULL_TRACER
    progress_sink: ProgressSink | None = progress
    if progress is not None:
        from ..obs.progress import CallbackProgress, ProgressSink

        if not isinstance(progress, ProgressSink):
            progress_sink = CallbackProgress(progress)
    # Built first so the run clock (and the deadline) covers the store
    # lookup too; building it emits nothing.
    stats = SearchStats(
        budget=config.max_states,
        tracer=run_tracer,
        deadline_seconds=config.deadline_seconds,
        cancel_token=cancel,
        progress=progress_sink,
    )
    store_obj = served = None
    if store is not None:
        # Lazy import: only runs with a store requested, keeping repro.store
        # (and its fingerprint/serialize machinery) off the cold hot path.
        from ..store import resolve_store

        store_obj = resolve_store(store)
        with run_tracer.span(
            "store_lookup", algorithm=algorithm, heuristic=heuristic
        ):
            served = store_obj.serve(
                source,
                target,
                algorithm=algorithm,
                heuristic=heuristic,
                k=k,
                registry=registry,
                tracer=run_tracer,
            )
    # A served request examines no state: it builds no problem or heuristic
    # and opens no discover span, so its trace is the store lookup plus the
    # search_start / solution / search_end records every run emits.
    discover_span = (
        nullcontext()
        if served is not None
        else run_tracer.span("discover", algorithm=algorithm, heuristic=heuristic)
    )
    with discover_span:
        if served is None:
            with run_tracer.span("setup"):
                problem = MappingProblem(
                    source,
                    target,
                    correspondences=correspondences,
                    registry=registry,
                    config=config,
                )
                h = make_heuristic(heuristic, target, k=k, algorithm=algorithm)
        if run_tracer.enabled:
            run_tracer.emit(
                SEARCH_START,
                algorithm=algorithm,
                heuristic=heuristic,
                budget=config.max_states,
                source_relations=len(source.relation_names),
                target_relations=len(target.relation_names),
                correspondences=len(correspondences),
            )
        expression: MappingExpression | None = None
        if served is not None:
            status, expression = STATUS_FOUND, served[0]
            operators = expression.operators
        else:
            status, operators = _search(algorithm, problem, h, stats, run_tracer)
        if operators is not None:
            if run_tracer.enabled:
                run_tracer.emit(
                    SOLUTION,
                    size=len(operators),
                    ops=[str(op) for op in operators],
                )
            if expression is None:
                expression = MappingExpression(operators)
                if simplify:
                    with run_tracer.span("simplify"):
                        expression = simplify_expression(
                            expression, source, target, problem.registry
                        )
        stats.stop_clock()
        if store_obj is not None and expression is not None and served is None:
            with run_tracer.span("store_save"):
                store_obj.record(
                    source,
                    target,
                    expression=expression,
                    algorithm=algorithm,
                    heuristic=heuristic,
                    k=k,
                    states_examined=stats.states_examined,
                    tracer=run_tracer,
                )
        if progress_sink is not None:
            progress_sink.finish()
    # Emitted after the discover span closes, keeping the trace contract
    # that search_end is the final record of every run.
    if run_tracer.enabled:
        flag = {"served_from_store": True} if served is not None else {}
        run_tracer.emit(SEARCH_END, status=status, **flag, **stats.as_dict())
    return SearchResult(
        status=status,
        expression=expression,
        stats=stats,
        algorithm=algorithm,
        heuristic=heuristic,
        served_from_store=served is not None,
    )


def _search(
    algorithm: str,
    problem: MappingProblem,
    h: Heuristic,
    stats: SearchStats,
    run_tracer: Tracer,
) -> tuple[str, "list[Operator] | None"]:
    """Run the search algorithm; its status and the operators it found."""
    search = _algorithm_function(algorithm)
    search_span = run_tracer.span("search")
    try:
        with search_span:
            try:
                return STATUS_FOUND, search(problem, h, stats)
            finally:
                stats.end_loop_span()
                search_span.annotate(
                    examined=stats.states_examined,
                    generated=stats.states_generated,
                    iterations=stats.iterations,
                    max_depth=stats.max_depth,
                )
    except MappingNotFound:
        return STATUS_NOT_FOUND, None
    except SearchBudgetExceeded:
        return STATUS_BUDGET_EXCEEDED, None
    except SearchDeadlineExceeded:
        return STATUS_DEADLINE_EXCEEDED, None
    except SearchCancelled:
        return STATUS_CANCELLED, None


class Tupelo:
    """A configured mapping-discovery engine.

    Holds algorithm/heuristic/config choices so callers can discover many
    mappings with one object::

        engine = Tupelo(algorithm="rbfs", heuristic="cosine")
        result = engine.discover(source_db, target_db)
        mapped = result.expression.apply(full_source_db)
    """

    def __init__(
        self,
        algorithm: str = "rbfs",
        heuristic: str = "h1",
        k: float | None = None,
        registry: FunctionRegistry | None = None,
        config: SearchConfig | None = None,
        simplify: bool = True,
        tracer: Tracer | None = None,
        progress: "ProgressSink | Callable | None" = None,
        store=None,
    ) -> None:
        algorithm = algorithm.lower()
        if algorithm not in _ALGORITHM_SITES:
            raise UnknownAlgorithmError(algorithm, ALGORITHM_NAMES)
        self.algorithm = algorithm
        self.heuristic = heuristic
        self.k = k
        self.registry = registry
        self.config = config if config is not None else SearchConfig()
        self.simplify = simplify
        #: default telemetry hooks applied to every discover() call
        self.tracer = tracer
        self.progress = progress
        #: warm-start store shared by every discover() call (path or store)
        self.store = store

    def discover(
        self,
        source: Database,
        target: Database,
        correspondences: Sequence[Correspondence] = (),
        tracer: Tracer | None = None,
        cancel: CancelToken | None = None,
        progress: "ProgressSink | Callable | None" = None,
    ) -> SearchResult:
        """Discover a mapping expression from *source* to *target*.

        *tracer* / *progress* override the engine-level
        defaults for this one call (pass them to trace a single discovery
        out of many); *cancel* makes this one call cooperatively
        cancellable.
        """
        return discover_mapping(
            source,
            target,
            algorithm=self.algorithm,
            heuristic=self.heuristic,
            k=self.k,
            correspondences=correspondences,
            registry=self.registry,
            config=self.config,
            simplify=self.simplify,
            tracer=tracer if tracer is not None else self.tracer,
            cancel=cancel,
            progress=progress if progress is not None else self.progress,
            store=self.store,
        )

    def __repr__(self) -> str:
        return (
            f"Tupelo(algorithm={self.algorithm!r}, heuristic={self.heuristic!r}, "
            f"k={self.k!r})"
        )
