"""Cooperative cancellation for mapping-discovery search.

The paper bounds search by a state budget; a caller also needs to *stop* a
search that is no longer wanted — an interactive user moved on, or a UI
thread is shutting down.  :class:`CancelToken` is the cooperative half of
that story: the caller (from any thread) sets the token, and the kernel's
periodic limit checks (see
:meth:`repro.search.stats.SearchStats.check_limits` and
:meth:`repro.search.problem.MappingProblem.successors`) observe it and
unwind with :class:`~repro.errors.SearchCancelled`, leaving partial
:class:`~repro.search.stats.SearchStats` intact.
"""

from __future__ import annotations


class CancelToken:
    """A cooperative, in-process cancellation flag.

    A plain attribute read is the cheapest possible check on the search
    hot path; setting it from another thread is safe because the search
    only ever reads it.
    """

    __slots__ = ("_flag",)

    def __init__(self) -> None:
        self._flag = False

    def cancel(self) -> None:
        """Request cancellation (idempotent; safe from any thread)."""
        self._flag = True

    @property
    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._flag

    def __bool__(self) -> bool:
        return self._flag

    def __repr__(self) -> str:
        return f"<CancelToken cancelled={self._flag}>"
