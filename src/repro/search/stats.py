"""Search statistics.

The paper's performance measure throughout §5 is the **number of states
examined** during search; :class:`SearchStats` tracks that counter plus the
secondary quantities (states generated, iterations/backtracks, peak depth,
wall-clock time) used by the ablation benches.

The memoisation layer (the node table of :mod:`repro.search.problem`: each
state's successor entries, goal verdict and heuristic estimate) reports
through here as well: hit / miss / eviction counters per memo, and
per-phase wall-clock (successor generation, heuristic evaluation, goal
tests) so benches can attribute time saved.

``SearchStats`` is the one store of a run's counters.  :meth:`as_dict`
is the snapshot the engine publishes in the ``search_end`` event, and
:func:`repro.obs.report.replay_counters` rebuilds it offline from a trace.
It also carries the run's :class:`~repro.obs.tracer.Tracer`
(``expand`` / ``iteration_start`` / ``budget_exceeded`` events are emitted
from the counting methods themselves, so every algorithm is traced without
per-algorithm plumbing); the tracer is disabled by default and guarded so
an untraced run pays one branch per instrumentation site.  Distributions
(depth, branching factor, heuristic values) live only in the trace: read
them from the ``expand``, ``generate`` and ``cache_miss`` events.

All wall-clock quantities here use ``time.perf_counter()`` — monotonic and
high-resolution; never ``time.time()``, whose wall-clock steps would skew
phase attribution.  :attr:`SearchStats.elapsed` is the single elapsed-time
reading benches and reports should use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import SearchBudgetExceeded, SearchCancelled, SearchDeadlineExceeded
from ..obs.events import (
    BUDGET_EXCEEDED,
    CANCELLED,
    DEADLINE_EXCEEDED,
    EXPAND,
    ITERATION_START,
    PROGRESS,
)
from ..obs.tracer import NULL_TRACER, SpanHandle, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.progress import ProgressSink, ProgressUpdate
    from ..relational.database import Database
    from .cancel import CancelToken

#: examinations between wall-clock deadline / cancel-token polls and
#: progress heartbeats — large enough that an unbounded run pays only a
#: modulo per examination, small enough that a bounded run overshoots its
#: deadline by at most a handful of state expansions.  Successor
#: generation also polls once per expansion, so coarse-grained algorithms
#: like beam stay responsive.
LIMIT_CHECK_EVERY = 16


@dataclass
class SearchStats:
    """Mutable counters threaded through one search run.

    Attributes:
        budget: maximum states that may be examined before aborting.
        states_examined: nodes visited (goal-tested) — the paper's metric.
            IDA* re-examines states across deepening iterations and RBFS
            across backtracks; such re-visits count again, as in the paper.
        states_generated: successor states delivered to the algorithm
            (memo hits count again, so the counter is identical however
            the node table is bounded).
        iterations: IDA* deepening iterations / RBFS recursive re-expansions.
        max_depth: deepest ``g`` reached.
        successor_cache_hits: successor entries served from a node
            without re-applying operators (transposition-table hits).
        successor_cache_misses: successor entries computed.
        successor_cache_evictions: filled successor entries dropped with
            an evicted node.
        goal_cache_hits: goal verdicts served from a node.
        goal_cache_misses: goal verdicts computed.
        goal_cache_evictions: filled goal verdicts dropped with an evicted
            node.
        heuristic_cache_hits: heuristic estimates served from a node.
        heuristic_cache_misses: heuristic estimates actually computed.
        heuristic_cache_evictions: filled estimates dropped with an
            evicted node.
        time_in_successors: wall-clock seconds spent in successor generation
            (memo hits included).
        time_in_heuristic: wall-clock seconds spent computing heuristic
            estimates (a hit is a slot read and is not timed).
        time_in_goal_tests: wall-clock seconds spent in goal tests (memo
            hits included).
        trace: when True, :meth:`examine` records each examined state in
            :attr:`examined_states` — the equivalence suite uses this to
            assert cached and uncached searches examine identical state
            sequences.
        tracer: the run's event tracer (shared no-op :data:`NULL_TRACER`
            by default).  Instrumentation sites read it from here, so
            attaching a real tracer to the stats object traces the whole
            run.
        deadline_seconds: optional wall-clock deadline (seconds from
            :attr:`started_at`); enforced cooperatively by
            :meth:`check_limits`, raising
            :class:`~repro.errors.SearchDeadlineExceeded`.
        cancel_token: optional :class:`~repro.search.cancel.CancelToken`;
            when set (possibly from another process), :meth:`check_limits`
            raises :class:`~repro.errors.SearchCancelled`.
        progress: optional :class:`~repro.obs.progress.ProgressSink`, given
            at construction (which loads the progress layer); when set (or
            when the tracer is enabled), :meth:`check_limits` also emits a
            heartbeat every :data:`LIMIT_CHECK_EVERY` examinations —
            piggybacked on the existing limit polls, so progress streaming
            adds zero new polling.
        current_f: best f-value currently under expansion (cheap unguarded
            write from each algorithm's main loop; heartbeat payload only —
            never read by the search itself).
        frontier_size: current frontier / recursion-path size (same
            contract as :attr:`current_f`).
    """

    budget: int = 1_000_000
    states_examined: int = 0
    states_generated: int = 0
    iterations: int = 0
    max_depth: int = 0
    successor_cache_hits: int = 0
    successor_cache_misses: int = 0
    successor_cache_evictions: int = 0
    goal_cache_hits: int = 0
    goal_cache_misses: int = 0
    goal_cache_evictions: int = 0
    heuristic_cache_hits: int = 0
    heuristic_cache_misses: int = 0
    heuristic_cache_evictions: int = 0
    time_in_successors: float = 0.0
    time_in_heuristic: float = 0.0
    time_in_goal_tests: float = 0.0
    trace: bool = False
    examined_states: "list[Database]" = field(default_factory=list)
    started_at: float = field(default_factory=time.perf_counter)
    elapsed_seconds: float = 0.0
    clock_stopped: bool = False
    tracer: Tracer = NULL_TRACER
    deadline_seconds: float | None = None
    cancel_token: CancelToken | None = None
    progress: ProgressSink | None = None
    current_f: float | None = None
    frontier_size: int = 0
    _progress_marker: int = field(default=0, init=False, repr=False)
    _progress_update: "type[ProgressUpdate] | None" = field(
        default=None, init=False, repr=False
    )
    _loop_span: "SpanHandle | None" = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.progress is not None:
            from ..obs.progress import ProgressUpdate

            self._progress_update = ProgressUpdate

    def examine(self, depth: int = 0, state: "Database | None" = None) -> None:
        """Record one state examination; raise if the budget is exhausted."""
        self.states_examined += 1
        if depth > self.max_depth:
            self.max_depth = depth
        if self.trace and state is not None:
            self.examined_states.append(state)
        tracer = self.tracer
        if tracer.enabled:
            if self._loop_span is None:
                # Lazily open one span around the whole expansion loop —
                # all four algorithms get it with no per-algorithm plumbing.
                self._loop_span = tracer.span("expand_loop")
                self._loop_span.__enter__()
            tracer.emit(EXPAND, depth=depth, n=self.states_examined)
        if self.states_examined > self.budget:
            if tracer.enabled:
                tracer.emit(
                    BUDGET_EXCEEDED,
                    budget=self.budget,
                    examined=self.states_examined,
                )
            raise SearchBudgetExceeded(self.budget, self.states_examined)
        if self.states_examined % LIMIT_CHECK_EVERY == 0 or self.states_examined == 1:
            self.check_limits()

    def check_limits(self) -> None:
        """Poll the wall-clock deadline and the cancel token (cooperative).

        Free when neither limit is configured (two attribute loads and two
        branches); with a limit set, one ``perf_counter`` read / one token
        poll per call.  Called every :data:`LIMIT_CHECK_EVERY` examinations from
        :meth:`examine` and once per expansion from
        :meth:`~repro.search.problem.MappingProblem.successors`.

        Raises:
            SearchDeadlineExceeded: the deadline has passed.
            SearchCancelled: the cancel token is set.
        """
        token = self.cancel_token
        if token is not None and token.cancelled:
            if self.tracer.enabled:
                self.tracer.emit(CANCELLED, examined=self.states_examined)
            raise SearchCancelled(self.states_examined)
        deadline = self.deadline_seconds
        if deadline is not None:
            elapsed = time.perf_counter() - self.started_at
            if elapsed > deadline:
                if self.tracer.enabled:
                    self.tracer.emit(
                        DEADLINE_EXCEEDED,
                        deadline=deadline,
                        elapsed=elapsed,
                        examined=self.states_examined,
                    )
                raise SearchDeadlineExceeded(
                    deadline, elapsed, self.states_examined
                )
        if self.progress is not None or self.tracer.enabled:
            self._maybe_progress()

    def _maybe_progress(self) -> None:
        """Emit a heartbeat if :data:`LIMIT_CHECK_EVERY` examinations passed.

        Throttled on the examination counter (not call count), so the
        cadence is one heartbeat per ``LIMIT_CHECK_EVERY`` examinations no
        matter how often :meth:`check_limits` is polled.
        """
        if self.states_examined - self._progress_marker < LIMIT_CHECK_EVERY:
            return
        self._progress_marker = self.states_examined
        elapsed = time.perf_counter() - self.started_at
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(
                PROGRESS,
                examined=self.states_examined,
                generated=self.states_generated,
                depth=self.max_depth,
                frontier=self.frontier_size,
                f=self.current_f,
                elapsed=elapsed,
            )
        if self.progress is not None:
            self.progress.update(
                self._progress_update(
                    examined=self.states_examined,
                    generated=self.states_generated,
                    depth=self.max_depth,
                    frontier=self.frontier_size,
                    best_f=self.current_f,
                    elapsed=elapsed,
                )
            )

    def end_loop_span(self) -> None:
        """Close the lazily-opened expansion-loop span (no-op if none).

        Annotates it with the run counters and the per-phase timers, which
        :func:`repro.obs.spans.build_span_tree` turns into phase-attribution
        child leaves.  Called from the engine when the algorithm returns and
        as a backstop from :meth:`stop_clock`.
        """
        span = self._loop_span
        if span is None:
            return
        self._loop_span = None
        span.annotate(
            examined=self.states_examined,
            generated=self.states_generated,
            iterations=self.iterations,
            time_in_successors=self.time_in_successors,
            time_in_heuristic=self.time_in_heuristic,
            time_in_goal_tests=self.time_in_goal_tests,
        )
        span.__exit__(None, None, None)

    def generated(self, count: int = 1) -> None:
        """Record successor generation."""
        self.states_generated += count

    def iteration(self, **info: object) -> None:
        """Record one IDA* deepening iteration / RBFS re-expansion.

        Keyword arguments become the ``iteration_start`` event payload
        (e.g. ``bound=`` for IDA* thresholds, ``limit=`` for RBFS f-limits,
        ``depth=`` for beam layers).
        """
        self.iterations += 1
        bound = info.get("bound", info.get("f", info.get("limit")))
        if isinstance(bound, (int, float)):
            self.current_f = float(bound)
        tracer = self.tracer
        if tracer.enabled:
            tracer.emit(ITERATION_START, n=self.iterations, **info)

    def stop_clock(self) -> None:
        """Freeze :attr:`elapsed_seconds` and close the expansion-loop span.

        Idempotent: a second call is a no-op.  Re-freezing would silently
        lengthen ``elapsed_seconds``.
        """
        if self.clock_stopped:
            return
        self.end_loop_span()
        self.elapsed_seconds = time.perf_counter() - self.started_at
        self.clock_stopped = True

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds of the run (live until :meth:`stop_clock`).

        The one elapsed-time reading benches and reports should consult:
        after :meth:`stop_clock` it is the frozen run duration; before, a
        live monotonic reading from the same ``perf_counter`` clock.
        """
        if self.clock_stopped:
            return self.elapsed_seconds
        return time.perf_counter() - self.started_at

    # -- cache aggregates ------------------------------------------------------

    @property
    def cache_hits(self) -> int:
        """Total hits across all three memo caches."""
        return (
            self.successor_cache_hits
            + self.goal_cache_hits
            + self.heuristic_cache_hits
        )

    @property
    def cache_misses(self) -> int:
        """Total misses across all three memo caches."""
        return (
            self.successor_cache_misses
            + self.goal_cache_misses
            + self.heuristic_cache_misses
        )

    @property
    def cache_evictions(self) -> int:
        """Total LRU evictions across all three memo caches."""
        return (
            self.successor_cache_evictions
            + self.goal_cache_evictions
            + self.heuristic_cache_evictions
        )

    @property
    def cache_hit_rate(self) -> float:
        """Hits / (hits + misses) across all caches (0.0 when unused)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Plain-dict rendering for reports and benches.

        ``deadline_seconds`` appears only when a deadline was configured,
        so unbounded runs keep the exact historical dict shape.
        """
        out: dict[str, float | int] = {
            "states_examined": self.states_examined,
            "states_generated": self.states_generated,
            "iterations": self.iterations,
            "max_depth": self.max_depth,
            "elapsed_seconds": self.elapsed_seconds,
            "successor_cache_hits": self.successor_cache_hits,
            "successor_cache_misses": self.successor_cache_misses,
            "successor_cache_evictions": self.successor_cache_evictions,
            "goal_cache_hits": self.goal_cache_hits,
            "goal_cache_misses": self.goal_cache_misses,
            "goal_cache_evictions": self.goal_cache_evictions,
            "heuristic_cache_hits": self.heuristic_cache_hits,
            "heuristic_cache_misses": self.heuristic_cache_misses,
            "heuristic_cache_evictions": self.heuristic_cache_evictions,
            "time_in_successors": self.time_in_successors,
            "time_in_heuristic": self.time_in_heuristic,
            "time_in_goal_tests": self.time_in_goal_tests,
        }
        if self.deadline_seconds is not None:
            out["deadline_seconds"] = float(self.deadline_seconds)
        return out
