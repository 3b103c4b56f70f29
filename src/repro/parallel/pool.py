"""Process-pool plumbing shared by the parallel entry points.

TUPELO's evaluation grid — (workload × algorithm × heuristic × size × trial)
— is embarrassingly parallel: every measured point is an independent search.
This module centralises the process-level mechanics the fan-out
(:mod:`repro.parallel.fanout`) needs:

* **start-method selection** — ``fork`` is preferred where available (cheap,
  and children inherit already-imported modules plus any warm module-level
  caches); ``forkserver`` and ``spawn`` are the fallbacks.  Everything
  shipped across the boundary is plain picklable data, so all three work.
* **worker sizing** — :func:`default_workers` respects CPU affinity masks
  (cgroup-limited containers report the usable count, not the machine's).
* **chunked dispatch** — :func:`strided_chunks` deals a work list into one
  chunk per worker, round-robin, so expensive neighbouring points (grids
  are typically sorted by size) land on different workers.
* **graceful degradation** — :func:`try_executor` returns ``None`` instead
  of raising when process pools are unavailable (missing ``_multiprocessing``
  in minimal builds, fork failures, read-only semaphore dirs); callers then
  run the identical work serially in-process;
* **the worker envelope** — :func:`run_in_worker` is how a fan-out chunk
  runs in a child: arm worker-scope faults, fire the site, run, and ship
  the ``resilience.*`` counters raised meanwhile home.

Nothing here imports the search kernel, so the module is cheap to import
inside freshly spawned workers.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Callable, Sequence, TypeVar

from ..resilience.faults import enter_worker, inject
from ..resilience.runtime import resilience_counters, resilience_delta

T = TypeVar("T")

#: start methods in preference order (cheapest / warmest first)
START_METHOD_PREFERENCE: tuple[str, ...] = ("fork", "forkserver", "spawn")

#: errors that mean "no process pool here" rather than a bug — the parallel
#: entry points degrade to serial execution on any of these
POOL_UNAVAILABLE_ERRORS: tuple[type[BaseException], ...] = (
    ImportError,
    NotImplementedError,
    OSError,
    PermissionError,
)


def cpu_count() -> int:
    """Usable CPUs for this process (affinity-aware, minimum 1).

    ``os.sched_getaffinity`` sees cgroup/affinity restrictions that
    ``os.cpu_count`` ignores — the honest number for sizing a worker pool
    inside a container.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return max(1, os.cpu_count() or 1)


def default_workers() -> int:
    """Default pool size: one worker per usable CPU."""
    return cpu_count()


def available_start_methods() -> tuple[str, ...]:
    """Start methods this platform offers (empty when mp is unusable)."""
    try:
        import multiprocessing

        return tuple(multiprocessing.get_all_start_methods())
    except POOL_UNAVAILABLE_ERRORS:  # pragma: no cover - minimal builds
        return ()


def preferred_start_method() -> str | None:
    """The best available start method (None when none work)."""
    available = available_start_methods()
    for method in START_METHOD_PREFERENCE:
        if method in available:
            return method
    return available[0] if available else None


def supports_start_method(method: str) -> bool:
    """Whether *method* is offered on this platform."""
    return method in available_start_methods()


def resolve_start_method(method: str | None) -> str | None:
    """Validate an explicit start method, or pick the preferred one.

    Raises:
        ValueError: when an explicitly requested method is unsupported
            (a typo should fail loudly; only *absence* degrades silently).
    """
    if method is None:
        return preferred_start_method()
    if not supports_start_method(method):
        raise ValueError(
            f"start method {method!r} not supported here; "
            f"available: {available_start_methods()}"
        )
    return method


def get_context(method: str | None = None):
    """A multiprocessing context for *method* (or the preferred one).

    Returns None when multiprocessing is unavailable entirely.
    """
    resolved = resolve_start_method(method)
    if resolved is None:  # pragma: no cover - minimal builds
        return None
    import multiprocessing

    return multiprocessing.get_context(resolved)


def try_executor(workers: int, start_method: str | None = None):
    """A ``ProcessPoolExecutor`` with *workers* processes, or None.

    Any platform-level failure (no ``multiprocessing``, fork refusal,
    unusable semaphores) yields None so callers can degrade to serial
    execution; an explicitly invalid *start_method* still raises.
    """
    try:
        from concurrent.futures import ProcessPoolExecutor

        context = get_context(start_method)
        if context is None:  # pragma: no cover - minimal builds
            return None
        return ProcessPoolExecutor(max_workers=workers, mp_context=context)
    except POOL_UNAVAILABLE_ERRORS:
        return None


def strided_chunks(items: Sequence[T], n_chunks: int) -> list[list[T]]:
    """Deal *items* round-robin into at most *n_chunks* non-empty chunks.

    ``strided_chunks([a, b, c, d, e], 2) == [[a, c, e], [b, d]]`` — the
    stride interleaves cheap and expensive grid points (grids are usually
    sorted by size) across workers, a static form of load balancing that
    keeps chunk assignment deterministic for a given worker count.
    """
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be positive, got {n_chunks}")
    chunks = [list(items[i::n_chunks]) for i in range(n_chunks)]
    return [chunk for chunk in chunks if chunk]


def worker_trace_path(path: str, worker_id: int) -> str:
    """Insert a ``.w{worker_id}`` marker before the path's extension.

    ``traces/ida-h1_x4.jsonl`` → ``traces/ida-h1_x4.w0.jsonl``: every
    worker writes trace files nobody else touches, so two workers can never
    interleave lines into one JSONL stream.  Paths without an extension get
    the marker appended; "" (tracing off) passes through unchanged.
    """
    if not path:
        return path
    p = Path(path)
    if p.suffix:
        return str(p.with_suffix(f".w{worker_id}{p.suffix}"))
    return f"{path}.w{worker_id}"


def run_in_worker(
    site: str, key: str | None, run: Callable[[], T]
) -> tuple[T, dict[str, int]]:
    """Run *run* as a worker; return its result and the counters it raised.

    ``enter_worker()`` marks this process so ``scope="worker"`` fault specs
    fire here but *not* during a serial fallback re-run in the parent —
    otherwise an injected worker crash would take the parent down with
    it.  The second element is the ``resilience.*`` delta since entry (e.g.
    a tracer degrading to untraced), which the parent absorbs on
    collection.
    """
    baseline = resilience_counters()
    enter_worker()
    inject(site, key=key)
    result = run()
    return result, resilience_delta(baseline)
