"""Deterministic fault injection for the chaos suite.

Production code is sprinkled with :func:`inject` calls at its failure
points ("sites": pool submission, worker entry, sink writes, store
I/O...).  With no plan activated an injection site costs one global
load and one branch — the fleet-wide default.  Tests activate a plan of
:class:`FaultSpec` records and the named sites then fail on command:
crash the process, sleep, raise an ``OSError`` / ``PicklingError``, or
hang.

Everything is deterministic: *which* call fails is selected by a
per-process hit counter (``at`` / ``times``), never by wall-clock or
randomness, so a chaos test that passes once passes always.

Cross-process transport: ``activate(..., env=True)`` serialises the plan
into the ``REPRO_FAULTS`` environment variable.  Forked workers inherit
the live registry; spawned workers find the registry empty, read the
variable on their first :func:`inject` call, and load the same plan.
Worker-scoped specs (``scope="worker"``) additionally require
:func:`enter_worker` to have been called in the current process — that
flag is set only by the pool / child entry wrappers, so when a parallel
path degrades to a serial re-run in the parent, worker faults do not
re-fire there (a crash spec would otherwise take down the parent too).
"""

from __future__ import annotations

import json
import os
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Sequence

#: environment variable carrying the active plan to spawned workers
FAULTS_ENV = "REPRO_FAULTS"

# -- fault kinds --------------------------------------------------------------

KIND_CRASH = "crash"  #: hard-exit the process (os._exit), like a segfault
KIND_SLOW = "slow"  #: sleep ``delay`` seconds, then continue normally
KIND_IO_ERROR = "io_error"  #: raise InjectedIOError (an OSError)
KIND_PICKLE_ERROR = "pickle_error"  #: raise InjectedPicklingError
KIND_HANG = "hang"  #: sleep ``delay`` seconds (alias of slow, reads as intent)

KIND_NAMES: tuple[str, ...] = (
    KIND_CRASH,
    KIND_SLOW,
    KIND_IO_ERROR,
    KIND_PICKLE_ERROR,
    KIND_HANG,
)

# -- scopes -------------------------------------------------------------------

SCOPE_ANY = "any"  #: fire wherever the site is reached
SCOPE_WORKER = "worker"  #: fire only in processes that called enter_worker()
SCOPE_PARENT = "parent"  #: fire only in processes that did not

SCOPE_NAMES: tuple[str, ...] = (SCOPE_ANY, SCOPE_WORKER, SCOPE_PARENT)

#: exit code used by crash faults — distinctive in waitpid status reports
CRASH_EXIT_CODE = 13


class InjectedFault(RuntimeError):
    """Base marker for exceptions raised by the fault-injection harness."""


class InjectedIOError(OSError):
    """Injected I/O failure; an ``OSError`` so production handling fires."""


class InjectedPicklingError(pickle.PicklingError):
    """Injected serialisation failure; a real ``PicklingError`` subclass."""


@dataclass
class FaultSpec:
    """One planned fault at one injection site.

    Attributes:
        site: injection-site name (see the ``SITE_*`` constants in the
            modules that declare sites, e.g. :mod:`repro.parallel.fanout`).
        kind: one of :data:`KIND_NAMES`.
        at: 1-based hit number at which the fault starts firing.
        times: how many consecutive hits fire (0 = every hit from ``at``).
        delay: sleep seconds for ``slow`` / ``hang`` kinds.
        scope: one of :data:`SCOPE_NAMES`; ``worker`` specs fire only in
            processes that entered via :func:`enter_worker`.
        match: optional substring that must appear in the ``key`` the site
            passes to :func:`inject` (targets e.g. one fan-out chunk).
        hits: per-process hit counter (runtime state, not part of the plan).
    """

    site: str
    kind: str
    at: int = 1
    times: int = 1
    delay: float = 0.0
    scope: str = SCOPE_ANY
    match: str | None = None
    hits: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KIND_NAMES:
            raise ValueError(f"unknown fault kind {self.kind!r}; use {KIND_NAMES}")
        if self.scope not in SCOPE_NAMES:
            raise ValueError(f"unknown fault scope {self.scope!r}; use {SCOPE_NAMES}")
        if self.at < 1:
            raise ValueError(f"fault 'at' is 1-based; got {self.at}")
        if self.times < 0:
            raise ValueError(f"fault 'times' cannot be negative; got {self.times}")

    def to_dict(self) -> dict:
        return {
            "site": self.site,
            "kind": self.kind,
            "at": self.at,
            "times": self.times,
            "delay": self.delay,
            "scope": self.scope,
            "match": self.match,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        return cls(
            site=data["site"],
            kind=data["kind"],
            at=int(data.get("at", 1)),
            times=int(data.get("times", 1)),
            delay=float(data.get("delay", 0.0)),
            scope=data.get("scope", SCOPE_ANY),
            match=data.get("match"),
        )


#: the active plan (empty tuple = injection disabled, the hot-path check)
_PLAN: tuple[FaultSpec, ...] = ()
#: set when this process loaded (or was handed) a plan, so an empty
#: registry is not re-read from the environment on every inject() call
_PLAN_LOADED = False
#: set by enter_worker(); gates scope="worker" specs
_IN_WORKER = False


def activate(specs: Sequence[FaultSpec], env: bool = False) -> None:
    """Install *specs* as the active plan (replacing any previous plan).

    With ``env=True`` the plan is also exported through ``REPRO_FAULTS``
    so worker processes started with the ``spawn`` method pick it up.
    """
    global _PLAN, _PLAN_LOADED
    _PLAN = tuple(specs)
    _PLAN_LOADED = True
    for spec in _PLAN:
        spec.hits = 0
    if env:
        os.environ[FAULTS_ENV] = json.dumps([spec.to_dict() for spec in _PLAN])


def deactivate() -> None:
    """Clear the active plan, the environment transport, and the worker flag."""
    global _PLAN, _PLAN_LOADED, _IN_WORKER
    _PLAN = ()
    _PLAN_LOADED = True
    _IN_WORKER = False
    os.environ.pop(FAULTS_ENV, None)


@contextmanager
def fault_plan(*specs: FaultSpec, env: bool = False) -> Iterator[tuple[FaultSpec, ...]]:
    """Activate *specs* for the duration of a ``with`` block."""
    activate(specs, env=env)
    try:
        yield _PLAN
    finally:
        deactivate()


def enter_worker() -> None:
    """Mark this process as a worker (arms ``scope="worker"`` specs)."""
    global _IN_WORKER
    _IN_WORKER = True


def in_worker() -> bool:
    """Whether this process has been marked as a worker."""
    return _IN_WORKER


def _load_plan() -> tuple[FaultSpec, ...]:
    """Return the active plan, reading ``REPRO_FAULTS`` once if unset."""
    global _PLAN, _PLAN_LOADED
    if not _PLAN_LOADED:
        _PLAN_LOADED = True
        raw = os.environ.get(FAULTS_ENV)
        if raw:
            _PLAN = tuple(FaultSpec.from_dict(d) for d in json.loads(raw))
    return _PLAN


def inject(site: str, key: str | None = None) -> None:
    """Fault-injection site: a no-op unless an active spec matches.

    Args:
        site: the site name this call guards.
        key: optional discriminator (e.g. the fan-out chunk id) matched
            against ``FaultSpec.match``.
    """
    plan = _PLAN if _PLAN_LOADED else _load_plan()
    if not plan:
        return
    for spec in plan:
        if spec.site != site:
            continue
        if spec.scope == SCOPE_WORKER and not _IN_WORKER:
            continue
        if spec.scope == SCOPE_PARENT and _IN_WORKER:
            continue
        if spec.match is not None and (key is None or spec.match not in key):
            continue
        spec.hits += 1
        if spec.hits < spec.at:
            continue
        if spec.times and spec.hits >= spec.at + spec.times:
            continue
        _fire(spec, site, key)


def _fire(spec: FaultSpec, site: str, key: str | None) -> None:
    where = site if key is None else f"{site}[{key}]"
    if spec.kind == KIND_CRASH:
        # hard exit, bypassing finally blocks — models a segfaulted worker
        os._exit(CRASH_EXIT_CODE)
    if spec.kind in (KIND_SLOW, KIND_HANG):
        time.sleep(spec.delay)
        return
    if spec.kind == KIND_IO_ERROR:
        raise InjectedIOError(f"injected io_error at {where} (hit {spec.hits})")
    if spec.kind == KIND_PICKLE_ERROR:
        raise InjectedPicklingError(
            f"injected pickle_error at {where} (hit {spec.hits})"
        )
    raise InjectedFault(f"injected {spec.kind} at {where}")  # pragma: no cover
