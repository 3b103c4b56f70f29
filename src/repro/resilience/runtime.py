"""Degradation accounting and bounded retry.

Every survivable failure in the parallel, telemetry and store layers
records a ``resilience.*`` counter here before degrading (parallel →
serial, traced → untraced, stored → cold).  The counters live in a
process-global :class:`collections.Counter`, apart from a run's
:class:`~repro.search.stats.SearchStats`, so degraded runs still report
bit-identical search counters to healthy runs; the chaos suite reads
this ledger to prove each failure path was actually taken.

:func:`retry_call` is the shared transient-failure helper: bounded
attempts with exponential backoff and a *deterministic* jitter (seeded
from the site name and attempt number, never the wall clock or
``random``), so retry schedules are reproducible in tests.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Mapping, TypeVar
from zlib import crc32

T = TypeVar("T")

#: process-global ledger of resilience.* warning counts
RESILIENCE: Counter[str] = Counter()

#: recent (name, detail) warning events, newest last (bounded ring)
_EVENTS: list[tuple[str, str]] = []
_EVENTS_CAP = 256


def resilience_warning(name: str, detail: str = "") -> None:
    """Record one survivable failure: bump ``resilience.<name>``.

    *detail* (free-form, e.g. the exception repr or the degraded path) is
    kept in a bounded in-process event list for test assertions and
    post-mortems; it never reaches the counter itself.
    """
    RESILIENCE[f"resilience.{name}"] += 1
    _EVENTS.append((name, detail))
    del _EVENTS[:-_EVENTS_CAP]


def resilience_counters(prefix: str = "resilience.") -> dict[str, int]:
    """Snapshot of the global warning counters (sorted by name)."""
    return {
        name: count
        for name, count in sorted(RESILIENCE.items())
        if name.startswith(prefix)
    }


def resilience_delta(baseline: Mapping[str, int]) -> dict[str, int]:
    """Warnings raised since *baseline* (a :func:`resilience_counters` snapshot).

    Worker processes snapshot on entry and ship the delta home inside
    their picklable result payload; under ``fork`` the child inherits the
    parent's counters, so only the growth is the child's own.  Zero-growth
    names are dropped to keep payloads small.
    """
    delta: dict[str, int] = {}
    for name, value in resilience_counters().items():
        grew = value - int(baseline.get(name, 0))
        if grew > 0:
            delta[name] = grew
    return delta


def absorb_resilience(delta: Mapping[str, int]) -> None:
    """Fold a worker's shipped counter delta into this process's ledger.

    The inverse of :func:`resilience_delta`: the parent calls this once
    per collected worker payload, so degradations that happened across a
    process boundary (e.g. a child's tracer going dark) still show up in
    the parent's ``resilience.*`` counters and hence in chaos assertions.
    """
    for name, amount in delta.items():
        if amount > 0:
            RESILIENCE[name] += int(amount)


def resilience_events() -> list[tuple[str, str]]:
    """Recent warning events as ``(name, detail)`` pairs, oldest first."""
    return list(_EVENTS)


def reset_resilience() -> None:
    """Drop all counters and events (test isolation).

    Clears the singleton in place so every importer — including modules
    that bound ``RESILIENCE`` at import time — sees the fresh state.
    """
    RESILIENCE.clear()
    _EVENTS.clear()


def backoff_delay(site: str, attempt: int, base_delay: float) -> float:
    """Deterministic jittered exponential backoff for *attempt* (1-based).

    ``base * 2^(attempt-1)`` scaled by a jitter factor in [1.0, 1.25)
    derived from ``crc32(site) ^ attempt`` — reproducible across runs and
    processes, yet de-synchronised across sites and attempts.
    """
    jitter = 1.0 + ((crc32(site.encode("utf-8")) ^ attempt) % 256) / 1024.0
    return base_delay * (2 ** (attempt - 1)) * jitter


def retry_call(
    fn: Callable[[], T],
    *,
    site: str,
    retries: int = 2,
    base_delay: float = 0.05,
    retry_on: tuple[type[BaseException], ...] = (OSError,),
) -> T:
    """Call *fn*, retrying up to *retries* times on *retry_on* failures.

    Each retry records a ``resilience.retries`` warning and sleeps the
    :func:`backoff_delay` for its attempt number.  The final failure
    propagates unchanged so callers keep their own degradation path.
    """
    attempt = 0
    while True:
        try:
            return fn()
        except retry_on as exc:
            attempt += 1
            if attempt > retries:
                raise
            resilience_warning("retries", f"{site}: {type(exc).__name__}: {exc}")
            time.sleep(backoff_delay(site, attempt, base_delay))
