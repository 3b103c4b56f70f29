"""Parallel execution layer: experiment fan-out across worker processes.

:func:`~repro.parallel.fanout.run_experiment_points` shards a grid of
independent experiment measurements across a process pool (the
``workers=`` mode of the :mod:`repro.experiments.runner` functions).  It
degrades gracefully to serial execution when process pools are
unavailable, and the deterministic parts of its results are identical to
a serial run (see ``docs/performance.md``).
"""

from .fanout import (
    PointSpec,
    normalize_point,
    normalize_series,
    run_experiment_points,
)
from .pool import (
    available_start_methods,
    cpu_count,
    default_workers,
    preferred_start_method,
    strided_chunks,
    supports_start_method,
    worker_trace_path,
)
from .providers import (
    provider_names,
    register_provider,
    resolve_registry,
)

__all__ = [
    "PointSpec",
    "normalize_point",
    "normalize_series",
    "run_experiment_points",
    "available_start_methods",
    "cpu_count",
    "default_workers",
    "preferred_start_method",
    "strided_chunks",
    "supports_start_method",
    "worker_trace_path",
    "provider_names",
    "register_provider",
    "resolve_registry",
]
