"""Experiment runner: regenerate the paper's evaluation series (§5).

Each ``run_*`` function reproduces the measurement behind one family of
figures, returning structured points (x-value, states examined, status) that
the benches print and EXPERIMENTS.md records.  States are counted exactly as
in the paper; tasks that exhaust the state budget are reported at the budget
value with status ``budget_exceeded`` — the equivalent of the paper's plots
being cut at 10^6.

Every ``run_*`` function turns its grid into
:class:`~repro.parallel.fanout.PointSpec`\\ s and runs each through the one
executor, :func:`~repro.parallel.fanout.run_spec`, so a point is searched
the same way serially and in a pool.

Telemetry: every ``run_*`` function accepts ``trace_dir=`` (persist a
JSONL trace per measured point next to the archived series — each
:class:`ExperimentPoint` then carries its ``trace_path``).  A series'
counter totals are the sum of its points' counters, or offline the sum of
:func:`~repro.obs.report.replay_counters` over its traces.

Parallelism: every ``run_*`` function also accepts ``workers=N`` — the
series' specs shard across a process pool (:mod:`repro.parallel.fanout`)
and come back re-sorted by grid index, so the persisted points are
identical to a serial sweep except for the volatile fields (wall-clock, and
trace paths gaining a per-worker ``.w{n}`` marker).  ``workers=0`` (the
default) runs the specs in this process; pools that fail to start degrade
back to serial execution automatically.  The two differ only in cut-off
handling: with ``stop_after_cutoff`` a serial sweep stops at its first
cut-off point and never searches the sizes after it, while a parallel
sweep *measures* every requested point (workers cannot see each other's
cut-offs) and truncates on collection, trading wasted work for wall-clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import takewhile
from pathlib import Path
from typing import Iterable, Sequence

from ..parallel.fanout import PointSpec, run_experiment_points, run_spec
from ..parallel.providers import has_provider
from ..search.config import SearchConfig
from ..search.result import STATUS_FOUND, SearchResult
from ..workloads.bamm import BammDomain
from ..workloads.semantic_tasks import (
    PAPER_FUNCTION_COUNTS,
    SemanticDomain,
)
from ..workloads.synthetic import matching_pair


@dataclass(frozen=True)
class ExperimentPoint:
    """One measured point of an experiment series.

    Attributes:
        x: the independent variable (schema size, function count, ...).
        states: states examined (capped at the budget when exceeded).
        status: the search status at this point.
        expression_size: operators in the discovered expression (0 if none).
        cache_hits: memo-cache hits (transposition + goal + heuristic).
        cache_misses: memo-cache misses.
        elapsed_seconds: wall-clock time of the search run.
        trace_path: path of the JSONL trace persisted for this point
            (empty when the series ran without ``trace_dir``).
        deadline_seconds: per-point wall-clock deadline the search ran
            under (0.0 = unbounded); points with status
            ``deadline_exceeded`` carry their partial counters.
    """

    x: float
    states: int
    status: str
    expression_size: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    trace_path: str = ""
    deadline_seconds: float = 0.0

    @property
    def found(self) -> bool:
        return self.status == STATUS_FOUND


@dataclass(frozen=True)
class ExperimentSeries:
    """A labelled series of measured points (one plotted line)."""

    label: str
    points: tuple[ExperimentPoint, ...]

    def states(self) -> list[int]:
        """The y-values of the series."""
        return [p.states for p in self.points]


def _point(spec: PointSpec, result: SearchResult) -> ExperimentPoint:
    size = len(result.expression) if result.expression is not None else 0
    return ExperimentPoint(
        x=spec.x,
        states=result.states_examined,
        status=result.status,
        expression_size=size,
        cache_hits=result.stats.cache_hits,
        cache_misses=result.stats.cache_misses,
        elapsed_seconds=result.stats.elapsed,
        trace_path=spec.trace_path,
        deadline_seconds=result.stats.deadline_seconds or 0.0,
    )


def _trace_path(trace_dir: str | Path | None, label: str, x: float) -> str:
    """The JSONL trace path for one measured point ("" when tracing is off).

    Trace files land in *trace_dir* as ``<label>_x<value>.jsonl`` with
    ``/`` flattened to ``-`` so each series label stays one directory.
    Parallel sweeps splice a ``.w{worker}`` marker in before the extension.
    """
    if trace_dir is None:
        return ""
    safe = label.replace("/", "-").replace(" ", "_")
    x_text = f"{x:g}".replace(".", "_")
    path = Path(trace_dir) / f"{safe}_x{x_text}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return str(path)


def _truncate_after_cutoff(
    points: Iterable[ExperimentPoint],
) -> list[ExperimentPoint]:
    """Keep points up to and including the first that found no mapping.

    Pulls *points* one at a time, so fed a lazy serial sweep it stops the
    sweep itself: the sizes after the cut-off are never searched.
    """
    out: list[ExperimentPoint] = []
    for point in points:
        out.append(point)
        if not point.found:
            break
    return out


def _sweep(
    label: str,
    specs: Iterable[PointSpec],
    *,
    stop_after_cutoff: bool,
    workers: int,
    start_method: str | None,
) -> ExperimentSeries:
    """Run one series' specs, serially (lazily, in order) or on a pool."""
    if workers >= 1:
        points: Iterable[ExperimentPoint] = run_experiment_points(
            list(specs), workers, start_method=start_method
        )
    else:
        points = (_point(spec, run_spec(spec)) for spec in specs)
    if stop_after_cutoff:
        points = _truncate_after_cutoff(points)
    return ExperimentSeries(label=label, points=tuple(points))


def run_matching_series(
    algorithm: str,
    heuristic: str,
    sizes: Sequence[int],
    budget: int = 1_000_000,
    k: float | None = None,
    stop_after_cutoff: bool = True,
    trace_dir: str | Path | None = None,
    workers: int = 0,
    start_method: str | None = None,
    deadline_seconds: float | None = None,
    store: str | Path | None = None,
) -> ExperimentSeries:
    """Experiment 1 (Figs. 5 & 6): synthetic schema matching.

    Measures states examined for matching the ``A1..An -> B1..Bn`` pair at
    each size.  With *stop_after_cutoff* (default), the series stops once a
    size exhausts the budget — larger sizes only get more expensive, which
    is how the paper's curves end at the 10^6 cut.  *trace_dir* persists a
    JSONL trace per point.
    With ``workers >= 1`` the sizes shard across a process pool (see the
    module docstring for the determinism contract).  *deadline_seconds*
    bounds every point's wall-clock individually; a point that runs out of
    time lands with status ``deadline_exceeded`` and its partial counters
    (and, under *stop_after_cutoff*, ends the series like a budget cut).
    *store* points every measured point — serial or sharded — at one
    shared :class:`~repro.store.WarmStartStore` path, so repeated sweeps
    serve memoised mappings.
    """
    label = f"{algorithm}/{heuristic}"
    config = SearchConfig(max_states=budget, deadline_seconds=deadline_seconds)

    def specs():
        for i, size in enumerate(sizes):
            pair = matching_pair(size)
            yield PointSpec(
                index=i,
                x=size,
                source=pair.source,
                target=pair.target,
                algorithm=algorithm,
                heuristic=heuristic,
                k=k,
                config=config,
                trace_path=_trace_path(trace_dir, label, size),
                store_path=str(store) if store is not None else "",
            )

    return _sweep(
        label,
        specs(),
        stop_after_cutoff=stop_after_cutoff,
        workers=workers,
        start_method=start_method,
    )


def run_bamm_domain(
    algorithm: str,
    heuristic: str,
    domain: BammDomain,
    budget: int = 100_000,
    k: float | None = None,
    limit: int | None = None,
    trace_dir: str | Path | None = None,
    workers: int = 0,
    start_method: str | None = None,
    deadline_seconds: float | None = None,
) -> ExperimentSeries:
    """Experiment 2 (Figs. 7 & 8): one BAMM domain, fixed source -> targets.

    Returns one point per interface (x = interface id); callers average the
    states (the paper reports per-domain averages).  *limit* restricts the
    number of interfaces for quick runs.  ``workers >= 1`` shards the
    interfaces across a process pool.  *deadline_seconds* bounds each
    interface's wall-clock individually.
    """
    tasks = domain.tasks[:limit] if limit is not None else domain.tasks
    label = f"{algorithm}/{heuristic}/{domain.name}"
    config = SearchConfig(max_states=budget, deadline_seconds=deadline_seconds)
    specs = (
        PointSpec(
            index=i,
            x=task.interface_id,
            source=task.source,
            target=task.target,
            algorithm=algorithm,
            heuristic=heuristic,
            k=k,
            config=config,
            trace_path=_trace_path(trace_dir, label, task.interface_id),
        )
        for i, task in enumerate(tasks)
    )
    return _sweep(
        label,
        specs,
        stop_after_cutoff=False,
        workers=workers,
        start_method=start_method,
    )


def average_states(series: ExperimentSeries) -> float:
    """Mean states examined across a series (budget-capped points included)."""
    states = series.states()
    return sum(states) / len(states) if states else 0.0


def run_semantic_series(
    algorithm: str,
    heuristic: str,
    domain: SemanticDomain,
    counts: Sequence[int] = PAPER_FUNCTION_COUNTS,
    budget: int = 100_000,
    k: float | None = None,
    stop_after_cutoff: bool = True,
    trace_dir: str | Path | None = None,
    workers: int = 0,
    start_method: str | None = None,
    deadline_seconds: float | None = None,
) -> ExperimentSeries:
    """Experiment 3 (Fig. 9): states vs number of complex functions.

    Every point names the domain's function registry by its provider (the
    registry holds callables and cannot cross a process line), serial or
    with ``workers >= 1``; a domain with no registered provider raises
    ``KeyError`` before any search.  *deadline_seconds* bounds each
    point's wall-clock individually.
    """
    if not has_provider(domain.name):
        raise KeyError(
            f"semantic domain {domain.name!r} has no registry provider; "
            "register one with repro.parallel.register_provider()"
        )
    label = f"{algorithm}/{heuristic}/{domain.name}"
    config = SearchConfig(max_states=budget, deadline_seconds=deadline_seconds)

    def specs():
        grid = takewhile(lambda n: n <= domain.max_functions, counts)
        for i, n in enumerate(grid):
            task = domain.task(n)
            yield PointSpec(
                index=i,
                x=n,
                source=task.source,
                target=task.target,
                algorithm=algorithm,
                heuristic=heuristic,
                k=k,
                config=config,
                correspondences=tuple(task.correspondences),
                registry_provider=domain.name,
                trace_path=_trace_path(trace_dir, label, n),
            )

    return _sweep(
        label,
        specs(),
        stop_after_cutoff=stop_after_cutoff,
        workers=workers,
        start_method=start_method,
    )
