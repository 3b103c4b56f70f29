"""Parallel execution layer: experiment fan-out across worker processes.

:func:`~repro.parallel.fanout.run_experiment_points` shards a grid of
independent experiment measurements across a process pool (the
``workers=`` mode of the :mod:`repro.experiments.runner` functions).  It
degrades gracefully to serial execution when process pools are
unavailable, and the deterministic parts of its results are identical to
a serial run (see ``docs/performance.md``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".fanout": (
            "PointSpec", "normalize_point", "normalize_series",
            "run_experiment_points",
        ),
        ".pool": (
            "available_start_methods", "cpu_count", "default_workers",
            "preferred_start_method", "strided_chunks",
            "supports_start_method", "worker_trace_path",
        ),
        ".providers": (
            "provider_names", "register_provider", "resolve_registry",
        ),
    },
)
