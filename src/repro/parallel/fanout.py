"""Experiment fan-out: shard measured grid points across worker processes.

The paper's evaluation (Figs. 5–9) is a grid of independent measurements;
:func:`run_experiment_points` executes a list of :class:`PointSpec`\\ s
across a ``ProcessPoolExecutor`` and returns
:class:`~repro.experiments.runner.ExperimentPoint`\\ s **re-sorted by grid
index**, so callers persist results in exactly the order a serial sweep
would have produced.

Design decisions, in the order they matter:

* **One request, one executor.**  A :class:`PointSpec` is the whole
  discovery request in pickle-safe form: the critical instances, a
  :class:`~repro.search.config.SearchConfig`, correspondences and a
  *registry provider name* (see :mod:`repro.parallel.providers`) — never
  a live ``FunctionRegistry`` or a warm ``MappingProblem``.
  :func:`run_spec` runs one; serial sweeps and fan-out chunks both call
  it, so a point is searched the same way wherever it runs.
* **Chunked dispatch, one chunk per worker.**  Chunks are dealt round-robin
  (:func:`~repro.parallel.pool.strided_chunks`) and each worker runs its
  chunk serially inside the shared worker envelope
  (:func:`~repro.parallel.pool.run_in_worker`).
* **Per-worker trace files.**  When a spec carries a trace path, the chunk
  id is spliced in as ``.w{chunk}`` before the extension
  (:func:`~repro.parallel.pool.worker_trace_path`) so no two workers ever
  write into the same JSONL stream; the rewritten path is what lands in
  ``ExperimentPoint.trace_path`` and hence in ``trace_index_table``.
* **Determinism contract.**  Every counter a point carries (states, status,
  expression size, cache hits/misses) is bit-identical to the serial run;
  only wall-clock fields (``elapsed_seconds``) and trace paths (the
  ``.w{n}`` marker) are volatile.  :func:`normalize_point` /
  :func:`normalize_series` zero the volatile fields so archives from serial
  and parallel runs can be compared byte-for-byte.
* **Graceful degradation.**  If process pools are unavailable (ImportError,
  fork failure, broken pool mid-run, unpicklable payloads) the same chunks
  run serially in this process — identical results, no parallelism, no
  crash.  Transient pool failures are retried first
  (:func:`~repro.resilience.runtime.retry_call`, bounded with
  deterministic jittered backoff); every degradation records a
  ``resilience.*`` counter in the process-global ledger, never in a
  point's :class:`~repro.search.stats.SearchStats` (which must stay
  bit-identical to a healthy run).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from pickle import PicklingError
from typing import TYPE_CHECKING, Sequence

from ..obs.sinks import JsonlSink
from ..obs.tracer import Tracer
from ..relational.database import Database
from ..resilience.faults import inject
from ..resilience.runtime import (
    absorb_resilience,
    resilience_warning,
    retry_call,
)
from ..search.config import SearchConfig
from ..search.engine import discover_mapping
from ..search.result import SearchResult
from ..semantics.correspondence import Correspondence
from .pool import run_in_worker, strided_chunks, try_executor, worker_trace_path
from .providers import resolve_registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..experiments.runner import ExperimentPoint, ExperimentSeries

#: fault-injection sites (see repro.resilience.faults)
SITE_FANOUT_POOL = "fanout.pool"  #: parent, before the pool spins up
SITE_FANOUT_SUBMIT = "fanout.submit"  #: parent, as chunks are submitted
SITE_FANOUT_WORKER = "fanout.worker"  #: worker, on chunk entry

#: pool attempts beyond the first before degrading to serial
POOL_RETRIES = 2


@dataclass(frozen=True)
class PointSpec:
    """One discovery request, in pickle-safe form.

    Attributes:
        source / target: the critical instances.
        algorithm / heuristic / k: search parameters.
        config: the :class:`SearchConfig` (budget, per-request
            ``deadline_seconds``, ...); each worker enforces the deadline
            cooperatively inside its own search, so one slow point cannot
            starve the rest of a chunk.
        correspondences: declared complex correspondences.
        registry_provider: provider name resolving the function registry
            where the spec runs (None means the built-ins).
        trace_path: JSONL trace destination ("" = untraced); fan-out
            rewrites it with the worker marker before dispatch.
        store_path: warm-start store directory ("" = no store); workers
            share the path, so each serves from and records into the same
            :class:`~repro.store.WarmStartStore` memo.
        index: position in the grid (collection re-sorts on this).
        x: the point's independent variable, recorded verbatim.
    """

    source: Database
    target: Database
    algorithm: str
    heuristic: str
    k: float | None = None
    config: SearchConfig = field(default_factory=SearchConfig)
    correspondences: tuple[Correspondence, ...] = ()
    registry_provider: str | None = None
    trace_path: str = ""
    store_path: str = ""
    index: int = 0
    x: float = 0.0


def run_spec(spec: PointSpec) -> SearchResult:
    """Run one request: the path every sweep point takes.

    Resolves the registry by provider name, streams the JSONL trace when
    ``trace_path`` is set, and calls
    :func:`~repro.search.engine.discover_mapping` on the raw search path
    (no post-simplify: sweeps measure what the search found).
    """
    tracer = Tracer(JsonlSink(spec.trace_path)) if spec.trace_path else None
    try:
        return discover_mapping(
            spec.source,
            spec.target,
            algorithm=spec.algorithm,
            heuristic=spec.heuristic,
            k=spec.k,
            correspondences=spec.correspondences,
            registry=resolve_registry(spec.registry_provider),
            config=spec.config,
            simplify=False,
            tracer=tracer,
            store=spec.store_path or None,
        )
    finally:
        if tracer is not None:
            tracer.close()


def _run_chunk(specs: Sequence[PointSpec]) -> list[tuple[int, ExperimentPoint]]:
    """Worker entry point: run one chunk serially, return indexed points."""
    from ..experiments.runner import _point  # the runner imports this module

    return [(spec.index, _point(spec, run_spec(spec))) for spec in specs]


def _run_chunk_pooled(
    specs: Sequence[PointSpec],
) -> tuple[list[tuple[int, ExperimentPoint]], dict[str, int]]:
    """Pool-dispatched chunk entry: :func:`_run_chunk` in the worker envelope."""
    return run_in_worker(
        SITE_FANOUT_WORKER,
        f"chunk{specs[0].index}" if specs else None,
        partial(_run_chunk, specs),
    )


def _mark_worker_traces(chunks: list[list[PointSpec]]) -> list[list[PointSpec]]:
    """Rewrite each traced spec's path with its chunk's ``.w{n}`` marker."""
    marked: list[list[PointSpec]] = []
    for worker_id, chunk in enumerate(chunks):
        marked.append(
            [
                replace(s, trace_path=worker_trace_path(s.trace_path, worker_id))
                if s.trace_path
                else s
                for s in chunk
            ]
        )
    return marked


def run_experiment_points(
    specs: Sequence[PointSpec],
    workers: int,
    start_method: str | None = None,
) -> list[ExperimentPoint]:
    """Execute *specs* on a pool of *workers* processes.

    Points come back sorted by grid index — byte-identical (modulo
    wall-clock and trace-path markers) to running the specs serially.

    Degrades to serial in-process execution when pools are unavailable,
    break mid-run (retried up to :data:`POOL_RETRIES` times first — the
    chunks are side-effect-idempotent, so a full redo is safe), or the
    payload fails to pickle; every degradation records a ``resilience.*``
    counter.  An explicitly invalid *start_method* still raises.
    """
    if not specs:
        return []
    chunks = _mark_worker_traces(strided_chunks(list(specs), max(1, workers)))
    outcomes: list[tuple] | None = None
    if workers >= 1:
        from concurrent.futures.process import BrokenProcessPool

        def _pooled():
            inject(SITE_FANOUT_POOL)
            executor = try_executor(len(chunks), start_method)
            if executor is None:
                return None  # pool machinery unavailable on this platform
            with executor:
                inject(SITE_FANOUT_SUBMIT)
                return list(executor.map(_run_chunk_pooled, chunks))

        try:
            outcomes = retry_call(
                _pooled,
                site=SITE_FANOUT_POOL,
                retries=POOL_RETRIES,
                retry_on=(BrokenProcessPool, OSError),
            )
        except (BrokenProcessPool, OSError, PicklingError) as exc:
            resilience_warning(
                "parallel_degraded", f"{type(exc).__name__}: {exc}"
            )
            outcomes = None
        if outcomes is None:
            resilience_warning("serial_fallbacks", f"{len(chunks)} chunk(s)")
    if outcomes is None:
        # serial fallback: warnings land directly in this process's
        # ledger, so the shipped delta is empty by construction
        outcomes = [(_run_chunk(chunk), {}) for chunk in chunks]
    indexed: list[tuple[int, ExperimentPoint]] = []
    for chunk_points, chunk_resilience in outcomes:
        indexed.extend(chunk_points)
        absorb_resilience(chunk_resilience)
    indexed.sort(key=lambda item: item[0])
    return [point for _index, point in indexed]


# -- determinism contract helpers -------------------------------------------


def normalize_point(point: ExperimentPoint) -> ExperimentPoint:
    """Zero the volatile fields of a point (wall-clock, trace path).

    What remains is the deterministic payload the parallel layer guarantees
    bit-identical to a serial run: x, states, status, expression size, and
    every cache counter.
    """
    return replace(point, elapsed_seconds=0.0, trace_path="")


def normalize_series(series: ExperimentSeries) -> ExperimentSeries:
    """A copy of *series* with every point normalized (label untouched)."""
    return replace(series, points=tuple(normalize_point(p) for p in series.points))
