"""Resilience layer: deterministic fault injection and degradation accounting.

Two halves:

* :mod:`repro.resilience.faults` — the chaos harness.  Production failure
  points call :func:`inject` (free when no plan is active); tests activate
  :class:`FaultSpec` plans to crash workers, slow them down, break sink
  writes, or poison pickling — deterministically, selected by hit count.
* :mod:`repro.resilience.runtime` — the degradation ledger.  Survivable
  failures record ``resilience.*`` counts in a process-global
  :class:`collections.Counter` (kept apart from a run's ``SearchStats``,
  so degraded runs report the same search counters as healthy ones) and
  share :func:`retry_call`, the bounded deterministic-jitter retry
  helper.

See ``docs/robustness.md`` for the degradation contract.
"""

from .faults import (
    CRASH_EXIT_CODE,
    FAULTS_ENV,
    KIND_CRASH,
    KIND_HANG,
    KIND_IO_ERROR,
    KIND_NAMES,
    KIND_PICKLE_ERROR,
    KIND_SLOW,
    SCOPE_ANY,
    SCOPE_NAMES,
    SCOPE_PARENT,
    SCOPE_WORKER,
    FaultSpec,
    InjectedFault,
    InjectedIOError,
    InjectedPicklingError,
    activate,
    deactivate,
    enter_worker,
    fault_plan,
    in_worker,
    inject,
)
from .runtime import (
    RESILIENCE,
    absorb_resilience,
    backoff_delay,
    reset_resilience,
    resilience_counters,
    resilience_delta,
    resilience_events,
    resilience_warning,
    retry_call,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "FAULTS_ENV",
    "KIND_CRASH",
    "KIND_HANG",
    "KIND_IO_ERROR",
    "KIND_NAMES",
    "KIND_PICKLE_ERROR",
    "KIND_SLOW",
    "SCOPE_ANY",
    "SCOPE_NAMES",
    "SCOPE_PARENT",
    "SCOPE_WORKER",
    "FaultSpec",
    "InjectedFault",
    "InjectedIOError",
    "InjectedPicklingError",
    "RESILIENCE",
    "absorb_resilience",
    "activate",
    "backoff_delay",
    "deactivate",
    "enter_worker",
    "fault_plan",
    "in_worker",
    "inject",
    "reset_resilience",
    "resilience_counters",
    "resilience_delta",
    "resilience_events",
    "resilience_warning",
    "retry_call",
]
