"""Algorithm-portfolio racing: all search algorithms, one problem, first
verified mapping wins.

The paper's algorithms have wildly different cost profiles per task shape
(Figs. 5–9: IDA* wins some grids, RBFS others; beam is fast but incomplete).
When latency matters more than CPU-seconds — the interactive-mapping setting
— the right move is to race the whole portfolio across processes and return
the first *verified* mapping, cancelling the losers mid-search.

:func:`discover_mapping_portfolio` does exactly that:

* one child process per arm (default portfolio: IDA*, RBFS, A*, beam),
  each running its :class:`~repro.parallel.fanout.PointSpec` through the
  same executor as every sweep point
  (:func:`~repro.parallel.fanout.run_spec`) inside the shared worker
  envelope (:func:`~repro.parallel.pool.run_in_worker`);
* a worker that finds an expression **verifies it before racing home**
  (applies the expression to the source and checks target containment),
  and the parent re-verifies before declaring a winner — a corrupted or
  unsound arm cannot win the race;
* losers are cancelled the moment a verified mapping arrives, gently
  first and forcibly after: each arm carries a
  :class:`~repro.search.cancel.CancelToken` backed by a shared
  ``multiprocessing.Event``, so a losing arm usually unwinds cooperatively
  within *cancel_grace* and reports its partial ``SearchStats``; whatever
  is still alive after that is ``terminate()``d, then ``kill()``ed after
  *terminate_grace*, then joined — the parent never leaks a child
  process, even for an arm stuck in native code;
* per-arm :class:`~repro.search.stats.SearchStats` come back as plain
  dicts and are published into a caller-supplied
  :class:`~repro.obs.metrics.MetricsRegistry` under ``portfolio.<arm>.*``,
  so one registry shows the whole race;
* with ``trace_dir=`` every arm streams its own JSONL trace
  (``arm_<name>.jsonl``) — ``repro trace --inspect`` renders any arm's
  ``run_profile`` after the fact;
* when process pools are unavailable the race degrades to running arms
  serially in preference order, stopping at the first verified mapping
  (same answer, no speedup, ``mode="serial"``).

Function registries cross the process boundary by *provider name* (see
:mod:`repro.parallel.providers`), never by pickling callables.
"""

from __future__ import annotations

import queue as queue_mod
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Mapping, Sequence

from ..fira.expression import MappingExpression
from ..obs.metrics import MetricsRegistry
from ..relational.database import Database
from ..resilience.faults import inject
from ..resilience.runtime import absorb_resilience, resilience_warning
from ..search.cancel import CancelToken
from ..search.config import SearchConfig
from ..search.engine import ALGORITHM_NAMES
from ..search.result import STATUS_FOUND, SearchResult
from ..search.stats import SearchStats
from ..semantics.correspondence import Correspondence
from .fanout import PointSpec, run_spec
from .pool import (
    POOL_UNAVAILABLE_ERRORS,
    get_context,
    resolve_start_method,
    run_in_worker,
)
from .providers import resolve_registry

#: the default racing portfolio — the paper's two linear-memory algorithms
#: plus the best-first and beam ablations (one arm per search strategy)
DEFAULT_PORTFOLIO: tuple[str, ...] = ("ida", "rbfs", "astar", "beam")

#: seconds to keep polling for a dead child's already-queued report
_DRAIN_GRACE = 2.0

#: queue poll interval while the race is live
_POLL_INTERVAL = 0.1

#: default seconds losers get to unwind cooperatively before terminate()
DEFAULT_CANCEL_GRACE = 1.0

#: default seconds a terminated child gets to die before kill()
DEFAULT_TERMINATE_GRACE = 5.0

#: fault-injection sites (see repro.resilience.faults)
SITE_PORTFOLIO_SPAWN = "portfolio.spawn"  #: parent, before arms start
SITE_PORTFOLIO_ARM = "portfolio.arm"  #: child, on arm entry (key = arm name)

ARM_STATUS_ERROR = "error"
ARM_STATUS_CANCELLED = "cancelled"


@dataclass(frozen=True)
class ArmReport:
    """What one portfolio arm did during the race.

    Attributes:
        arm: arm name (the algorithm registry key).
        status: the arm's search status, or ``"cancelled"`` (terminated
            when another arm won / never started in serial mode) or
            ``"error"`` (the arm crashed; see ``error``).
        verified: the arm's expression re-applied to the source contains
            the target (checked in the worker *and* re-checked by the
            parent for the winning arm).
        states_examined: the paper's cost metric for this arm.
        elapsed_seconds: the arm's own search wall-clock.
        stats: full ``SearchStats.as_dict()`` snapshot (empty when the arm
            was cancelled before reporting).
        trace_path: the arm's JSONL trace ("" when untraced).
        error: crash diagnostics for ``status == "error"``.
    """

    arm: str
    status: str
    verified: bool = False
    states_examined: int = 0
    elapsed_seconds: float = 0.0
    stats: Mapping[str, float | int] | None = None
    trace_path: str = ""
    error: str = ""

    @property
    def finished(self) -> bool:
        """Whether the arm ran to completion (any terminal search status)."""
        return self.status not in (ARM_STATUS_CANCELLED, ARM_STATUS_ERROR)


@dataclass(frozen=True)
class PortfolioResult:
    """Outcome of one portfolio race.

    Attributes:
        winner: name of the winning arm (None when no arm found a mapping).
        result: the winner's :class:`SearchResult` (status/expression/stats
            reconstructed from the worker's report), or the best-effort
            result of the preferred finished arm when nothing was found.
        arms: one :class:`ArmReport` per arm, in portfolio order.
        mode: ``"process"`` (raced across processes) or ``"serial"``
            (degraded / requested in-process fallback).
        start_method: multiprocessing start method used (None in serial).
        elapsed_seconds: wall-clock of the whole race, including process
            startup and cancellation.
    """

    winner: str | None
    result: SearchResult | None
    arms: tuple[ArmReport, ...]
    mode: str
    start_method: str | None
    elapsed_seconds: float

    @property
    def found(self) -> bool:
        """Whether any arm returned a verified mapping."""
        return self.winner is not None

    def arm(self, name: str) -> ArmReport:
        """The report for one arm (raises ``KeyError`` when unknown)."""
        for report in self.arms:
            if report.arm == name:
                return report
        raise KeyError(f"no portfolio arm {name!r}; ran {[a.arm for a in self.arms]}")


def _arm_trace_path(trace_dir: str | Path | None, arm: str) -> str:
    if trace_dir is None:
        return ""
    path = Path(trace_dir) / f"arm_{arm}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    return str(path)


def _verifies(operators, spec: PointSpec) -> bool:
    """Whether *operators* applied to the spec's source contain its target."""
    registry = resolve_registry(spec.registry_provider)
    mapped = MappingExpression(operators).apply(spec.source, registry)
    return mapped.contains(spec.target)


def _run_arm(spec: PointSpec, cancel: CancelToken | None = None) -> dict:
    """Run one arm's spec and summarise it, verified, as a picklable dict."""
    result = run_spec(spec, cancel=cancel)
    operators = tuple(result.expression) if result.found else None
    return {
        "arm": spec.algorithm,
        "status": result.status,
        "verified": operators is not None and _verifies(operators, spec),
        "operators": operators,
        "stats": result.stats.as_dict(),
        "trace_path": spec.trace_path,
        "error": "",
    }


def _error_payload(arm: str, error: str, trace_path: str = "") -> dict:
    """The report of an arm that crashed or raised instead of finishing."""
    return {
        "arm": arm,
        "status": ARM_STATUS_ERROR,
        "verified": False,
        "operators": None,
        "stats": {},
        "trace_path": trace_path,
        "error": error,
    }


def _raised_payload(spec: PointSpec, err: BaseException) -> dict:
    error = f"{type(err).__name__}: {err}"
    return _error_payload(spec.algorithm, error, spec.trace_path)


def _race_arm(out_queue, spec: PointSpec, cancel_event=None) -> None:
    """Child-process entry point: run the arm, report, never raise.

    *cancel_event* is the arm's shared ``multiprocessing.Event``; wrapped
    in a :class:`CancelToken`, it lets the parent unwind this arm
    cooperatively (status ``"cancelled"``, partial stats intact) instead
    of terminating it blind.

    Every payload — a crash report included — carries the arm's
    ``resilience.*`` counter delta (the warnings this child raised, e.g. a
    tracer going dark mid-race), so the parent can absorb cross-process
    degradations into its own ledger.
    """
    token = CancelToken(cancel_event) if cancel_event is not None else None
    payload, delta = run_in_worker(
        SITE_PORTFOLIO_ARM,
        spec.algorithm,
        partial(_run_arm, spec, token),
        on_error=partial(_raised_payload, spec),
    )
    payload["resilience"] = delta
    out_queue.put(payload)


def _stats_from_dict(
    payload: Mapping[str, float | int], budget: int
) -> SearchStats:
    """Rebuild a frozen-clock :class:`SearchStats` from its dict snapshot."""
    stats = SearchStats(budget=budget)
    for key, value in payload.items():
        if hasattr(stats, key):
            setattr(stats, key, value)
    stats.clock_stopped = True
    return stats


def _report_from_payload(payload: Mapping) -> ArmReport:
    stats = payload.get("stats") or {}
    return ArmReport(
        arm=payload["arm"],
        status=payload["status"],
        verified=bool(payload.get("verified")),
        states_examined=int(stats.get("states_examined", 0)),
        elapsed_seconds=float(stats.get("elapsed_seconds", 0.0)),
        stats=dict(stats),
        trace_path=str(payload.get("trace_path", "")),
        error=str(payload.get("error", "")),
    )


def _result_from_payload(payload: Mapping, config: SearchConfig) -> SearchResult:
    operators = payload.get("operators")
    expression = MappingExpression(operators) if operators is not None else None
    return SearchResult(
        status=payload["status"],
        expression=expression,
        stats=_stats_from_dict(payload.get("stats") or {}, config.max_states),
        algorithm=payload["arm"],
        heuristic=payload.get("heuristic", ""),
    )


#: preference order when no arm found a mapping: a definitive "not found"
#: beats a budget cut, beats a deadline cut, beats a cancelled partial,
#: beats a crash
_STATUS_RANK = {
    "not_found": 0,
    "budget_exceeded": 1,
    "deadline_exceeded": 2,
    ARM_STATUS_CANCELLED: 3,
    ARM_STATUS_ERROR: 4,
}


def _pick_best(payloads: "dict[str, Mapping]", arms: Sequence[str]) -> Mapping | None:
    """The best-effort payload when the race produced no verified mapping."""
    candidates = [payloads[arm] for arm in arms if arm in payloads]
    if not candidates:
        return None
    return min(
        candidates,
        key=lambda p: (_STATUS_RANK.get(p["status"], 5),),
    )


def _wins(payload: Mapping, spec: PointSpec) -> bool:
    """A found, worker-verified mapping that re-verifies in this process."""
    operators = payload.get("operators")
    return (
        payload["status"] == STATUS_FOUND
        and payload["verified"]
        and operators is not None
        and _verifies(operators, spec)
    )


def discover_mapping_portfolio(
    source: Database,
    target: Database,
    algorithms: Sequence[str] = DEFAULT_PORTFOLIO,
    heuristic: str = "h1",
    k: float | None = None,
    correspondences: Sequence[Correspondence] = (),
    registry_provider: str | None = None,
    config: SearchConfig | None = None,
    simplify: bool = True,
    parallel: bool = True,
    start_method: str | None = None,
    trace_dir: str | Path | None = None,
    metrics: MetricsRegistry | None = None,
    timeout: float | None = None,
    cancel: CancelToken | None = None,
    cancel_grace: float = DEFAULT_CANCEL_GRACE,
    terminate_grace: float = DEFAULT_TERMINATE_GRACE,
    store: str | Path | None = None,
) -> PortfolioResult:
    """Race the algorithm portfolio on one problem; first verified win takes all.

    Args:
        source / target: the critical-instance pair to map.
        algorithms: arms to race (each a
            :data:`~repro.search.engine.ALGORITHM_NAMES` entry).
        heuristic / k: heuristic shared by every arm.
        correspondences: declared complex correspondences (§4).
        registry_provider: named registry factory resolved *inside each
            worker* (see :mod:`repro.parallel.providers`); None = built-ins.
        config: shared :class:`SearchConfig` (budget, per-arm
            ``deadline_seconds``, ...).
        simplify: post-simplify the winning expression (done in the worker).
        parallel: False forces the serial in-process fallback.
        start_method: multiprocessing start method override.
        trace_dir: directory for per-arm JSONL traces (``arm_<name>.jsonl``).
        metrics: registry receiving every finished arm's stats under
            ``portfolio.<arm>.*`` plus the race-level counters.
        timeout: overall race budget in seconds; on expiry the remaining
            arms are cancelled and the best finished arm is reported.
        cancel: caller-level :class:`CancelToken`; setting it mid-race
            cancels every arm (no winner is declared after it is seen).
        cancel_grace: seconds losers get to unwind cooperatively (report
            partial stats) before being ``terminate()``d.
        terminate_grace: seconds a terminated child gets to exit before
            escalation to ``kill()``.
        store: optional warm-start store path shared by every arm (see
            :mod:`repro.store`): arms pre-seed from and spill to the same
            files, so the race warms itself and subsequent requests.

    Returns:
        A :class:`PortfolioResult`; ``result.result.expression`` is the
        winning mapping when ``result.found``.
    """
    arms = tuple(dict.fromkeys(a.lower() for a in algorithms))
    if not arms:
        raise ValueError("portfolio needs at least one algorithm")
    unknown = [a for a in arms if a not in ALGORITHM_NAMES]
    if unknown:
        raise ValueError(
            f"unknown portfolio algorithms {unknown}; known: {ALGORITHM_NAMES}"
        )
    config = config if config is not None else SearchConfig()
    started = perf_counter()
    specs = [
        PointSpec(
            source=source,
            target=target,
            algorithm=arm,
            heuristic=heuristic,
            k=k,
            config=config,
            simplify=simplify,
            correspondences=tuple(correspondences),
            registry_provider=registry_provider,
            trace_path=_arm_trace_path(trace_dir, arm),
            store_path=str(store) if store is not None else "",
        )
        for arm in arms
    ]

    context = None
    resolved_method = None
    if parallel and len(arms) > 1:
        resolved_method = resolve_start_method(start_method)
        if resolved_method is not None:
            context = get_context(resolved_method)
    if context is None:
        outcome = _race_serial(specs, cancel)
        mode, resolved_method = "serial", None
    else:
        try:
            outcome = _race_processes(
                context,
                specs,
                timeout,
                cancel,
                cancel_grace,
                terminate_grace,
            )
            mode = "process"
        except POOL_UNAVAILABLE_ERRORS as exc:
            resilience_warning(
                "portfolio_degraded", f"{type(exc).__name__}: {exc}"
            )
            outcome = _race_serial(specs, cancel)
            mode, resolved_method = "serial", None
    winner, payloads, reports = outcome

    # Only the child entry point (_race_arm) sets "resilience", so serial
    # arms — whose warnings already landed in this process's ledger — are
    # never double-counted here.
    for payload in payloads.values():
        absorb_resilience(payload.get("resilience") or {})

    result: SearchResult | None = None
    if winner is not None:
        result = _result_from_payload(dict(payloads[winner], heuristic=heuristic), config)
    else:
        best = _pick_best(payloads, arms)
        if best is not None and best["status"] != ARM_STATUS_ERROR:
            result = _result_from_payload(dict(best, heuristic=heuristic), config)

    if metrics is not None:
        metrics.counter("portfolio.races").inc()
        if winner is not None:
            metrics.counter("portfolio.wins." + winner).inc()
        for report in reports:
            if report.stats:
                metrics.publish_stats(report.stats, prefix=f"portfolio.{report.arm}.")

    return PortfolioResult(
        winner=winner,
        result=result,
        arms=tuple(reports),
        mode=mode,
        start_method=resolved_method,
        elapsed_seconds=perf_counter() - started,
    )


def _race_serial(
    specs: Sequence[PointSpec], cancel: CancelToken | None = None
) -> tuple[str | None, dict, list[ArmReport]]:
    """In-process fallback: run arms in order, stop at first verified win.

    The caller's *cancel* token threads into every arm (cooperative
    unwind mid-search) and is checked between arms (skip the rest).
    """
    payloads: dict[str, Mapping] = {}
    reports: list[ArmReport] = []
    winner: str | None = None
    for spec in specs:
        arm = spec.algorithm
        if winner is not None or (cancel is not None and cancel.cancelled):
            reports.append(ArmReport(arm=arm, status=ARM_STATUS_CANCELLED))
            continue
        try:
            payload = _run_arm(spec, cancel)
        except Exception as err:  # noqa: BLE001 - match process-mode isolation
            payload = _raised_payload(spec, err)
        payloads[arm] = payload
        reports.append(_report_from_payload(payload))
        if _wins(payload, spec):
            winner = arm
    return winner, payloads, reports


def _reap_processes(processes: Mapping[str, object], terminate_grace: float) -> int:
    """Escalation ladder for still-live children: terminate -> kill -> join.

    Every live child is ``terminate()``d, given *terminate_grace* seconds
    collectively to exit, then ``kill()``ed (SIGKILL cannot be blocked)
    and joined — so the parent reaps every child and leaks no zombies.
    A needed kill records ``resilience.portfolio_kills``; a child that
    somehow survives even that records ``resilience.leaked_processes``.

    Returns the number of children that needed ``kill()``.
    """
    for process in processes.values():
        if process.is_alive():
            process.terminate()
    deadline = perf_counter() + max(0.0, terminate_grace)
    for process in processes.values():
        remaining = deadline - perf_counter()
        process.join(timeout=max(0.05, remaining))
    kills = 0
    for arm, process in processes.items():
        if process.is_alive():
            kills += 1
            resilience_warning("portfolio_kills", arm)
            process.kill()
    for arm, process in processes.items():
        process.join(timeout=5.0)
        if process.is_alive():  # pragma: no cover - SIGKILL cannot be blocked
            resilience_warning("leaked_processes", arm)
    return kills


def _race_processes(
    context,
    specs: Sequence[PointSpec],
    timeout: float | None,
    cancel: CancelToken | None = None,
    cancel_grace: float = DEFAULT_CANCEL_GRACE,
    terminate_grace: float = DEFAULT_TERMINATE_GRACE,
) -> tuple[str | None, dict, list[ArmReport]]:
    """Race arms across child processes; cancel losers on first win.

    Loser teardown is staged: cooperative cancel (per-arm Event, drained
    for up to *cancel_grace* so losers report partial stats), then
    :func:`_reap_processes` (terminate -> kill -> join).  The queue's
    feeder thread is shut down explicitly on exit, so the parent holds no
    queue resources after the race either.
    """
    inject(SITE_PORTFOLIO_SPAWN)
    specs_by_arm = {spec.algorithm: spec for spec in specs}
    arms = tuple(specs_by_arm)
    out_queue = context.Queue()
    cancel_events = {arm: context.Event() for arm in arms}
    processes = {}
    for arm, spec in specs_by_arm.items():
        process = context.Process(
            target=_race_arm,
            args=(out_queue, spec, cancel_events[arm]),
            daemon=True,
        )
        processes[arm] = process
        process.start()

    payloads: dict[str, Mapping] = {}
    pending = set(arms)
    winner: str | None = None
    deadline = None if timeout is None else perf_counter() + timeout
    grace: dict[str, float] = {}
    try:
        while pending:
            if deadline is not None and perf_counter() > deadline:
                break
            if cancel is not None and cancel.cancelled:
                break
            try:
                payload = out_queue.get(timeout=_POLL_INTERVAL)
            except queue_mod.Empty:
                now = perf_counter()
                for arm in sorted(pending):
                    process = processes[arm]
                    if process.is_alive():
                        continue
                    # dead child: give its queued report a short grace
                    # window before declaring a crash
                    first_seen = grace.setdefault(arm, now)
                    if now - first_seen >= _DRAIN_GRACE:
                        pending.discard(arm)
                        resilience_warning("worker_crashes", arm)
                        payloads[arm] = _error_payload(
                            arm,
                            f"worker exited with code {process.exitcode} "
                            "before reporting",
                        )
                continue
            arm = payload.get("arm")
            if arm not in pending:
                continue
            pending.discard(arm)
            payloads[arm] = payload
            if _wins(payload, specs_by_arm[arm]):
                winner = arm
                break
    finally:
        # stage 1 — cooperative: flip every pending arm's cancel event and
        # drain their partial-stats reports until they exit or grace runs out
        for arm in pending:
            cancel_events[arm].set()
        drain_deadline = perf_counter() + max(0.0, cancel_grace)
        while pending and perf_counter() < drain_deadline:
            try:
                payload = out_queue.get(timeout=min(_POLL_INTERVAL, 0.05))
            except queue_mod.Empty:
                if not any(processes[arm].is_alive() for arm in pending):
                    break
                continue
            arm = payload.get("arm")
            if arm in pending:
                pending.discard(arm)
                payloads[arm] = payload
        # stage 2 — forcible: terminate -> kill -> join whatever remains
        _reap_processes(processes, terminate_grace)
        # the parent never put() to this queue, so cancelling the feeder
        # thread cannot drop parent data; close() + cancel_join_thread()
        # guarantees queue teardown never blocks process exit
        out_queue.close()
        out_queue.cancel_join_thread()

    reports: list[ArmReport] = []
    for arm in arms:
        payload = payloads.get(arm)
        if payload is None:
            reports.append(ArmReport(arm=arm, status=ARM_STATUS_CANCELLED))
        else:
            reports.append(_report_from_payload(payload))
    return winner, payloads, reports


def race_table(result: PortfolioResult) -> str:
    """ASCII rendering of one race — one row per arm, winner marked."""
    from ..experiments.report import ascii_table

    rows: list[list[object]] = []
    for report in result.arms:
        marker = "<- winner" if report.arm == result.winner else ""
        if report.status == ARM_STATUS_CANCELLED:
            note = "cancelled"
        elif report.status == ARM_STATUS_ERROR:
            note = report.error
        else:
            note = "verified" if report.verified else ""
        rows.append(
            [
                report.arm,
                report.status,
                report.states_examined if report.finished else "-",
                f"{report.elapsed_seconds:.3f}" if report.finished else "-",
                note,
                marker,
            ]
        )
    title = (
        f"portfolio race ({result.mode}"
        + (f"/{result.start_method}" if result.start_method else "")
        + f", {result.elapsed_seconds:.3f}s)"
    )
    return ascii_table(
        ["arm", "status", "states", "elapsed (s)", "note", ""], rows, title=title
    )
