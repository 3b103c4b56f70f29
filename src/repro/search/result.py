"""Search results."""

from __future__ import annotations

from dataclasses import dataclass

from ..fira.expression import MappingExpression
from .stats import SearchStats

#: terminal statuses a search run can report
STATUS_FOUND = "found"
STATUS_NOT_FOUND = "not_found"
STATUS_BUDGET_EXCEEDED = "budget_exceeded"
STATUS_DEADLINE_EXCEEDED = "deadline_exceeded"
STATUS_CANCELLED = "cancelled"

#: every status a SearchResult may carry
STATUS_NAMES: tuple[str, ...] = (
    STATUS_FOUND,
    STATUS_NOT_FOUND,
    STATUS_BUDGET_EXCEEDED,
    STATUS_DEADLINE_EXCEEDED,
    STATUS_CANCELLED,
)


@dataclass(frozen=True)
class SearchResult:
    """Outcome of one mapping-discovery run.

    Attributes:
        status: ``"found"``, ``"not_found"`` (space exhausted),
            ``"budget_exceeded"`` (state budget hit, like the paper's 10^6
            plot cut-offs), ``"deadline_exceeded"`` (wall-clock deadline
            hit; stats carry the partial run), or ``"cancelled"`` (the
            caller's :class:`~repro.search.cancel.CancelToken` was set).
        expression: the discovered mapping expression (empty pipeline if the
            source already contains the target; None unless found).
        stats: search counters; ``stats.states_examined`` is the paper's
            reported metric.
        algorithm: algorithm registry name (``"ida"``, ``"rbfs"``, ...).
        heuristic: heuristic registry name (``"h1"``, ``"cosine"``, ...).
        served_from_store: True when the expression came out of a
            :class:`~repro.store.WarmStartStore` mapping memo (verified
            against this very pair) instead of a live search; stats then
            report zero states examined.  Algorithm/heuristic still name
            the *request*, since that is what the memo matched on.
    """

    status: str
    expression: MappingExpression | None
    stats: SearchStats
    algorithm: str
    heuristic: str
    served_from_store: bool = False

    @property
    def found(self) -> bool:
        """Whether a mapping expression was discovered."""
        return self.status == STATUS_FOUND

    @property
    def deadline_exceeded(self) -> bool:
        """Whether the run was cut by its wall-clock deadline."""
        return self.status == STATUS_DEADLINE_EXCEEDED

    @property
    def cancelled(self) -> bool:
        """Whether the run was cancelled via a :class:`CancelToken`."""
        return self.status == STATUS_CANCELLED

    @property
    def frontier_depth(self) -> int:
        """Deepest ``g`` the run reached — the best frontier-depth summary
        a partial (deadline-cut / cancelled) run can report."""
        return self.stats.max_depth

    @property
    def states_examined(self) -> int:
        """Shorthand for the paper's performance metric."""
        return self.stats.states_examined

    @property
    def cache_hits(self) -> int:
        """Total memo-cache hits (transposition + goal + heuristic)."""
        return self.stats.cache_hits

    @property
    def cache_misses(self) -> int:
        """Total memo-cache misses (transposition + goal + heuristic)."""
        return self.stats.cache_misses

    def __repr__(self) -> str:
        size = len(self.expression) if self.expression is not None else "-"
        return (
            f"SearchResult({self.status}, ops={size}, "
            f"states={self.stats.states_examined}, "
            f"algorithm={self.algorithm!r}, heuristic={self.heuristic!r})"
        )
