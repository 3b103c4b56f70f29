"""Heuristic abstraction.

A search heuristic ``h(x)`` estimates the number of transformation steps
from database *x* to the target critical instance *t* (§3).  Heuristics are
*compiled against the target*: construction precomputes whatever view of
``t`` the estimate needs (TNF projections, the database string, the term
vector), and evaluation sees only candidate states.

A heuristic is a pure function of the state.  The search memoises its
estimates on the search nodes (:meth:`repro.search.problem.MappingProblem.estimate`):
both IDA* and RBFS re-visit states across iterations/backtracks, and
databases are immutable, so memoising changes nothing semantically.  The
search also counts hits and misses and times the computed estimates.
"""

from __future__ import annotations

import abc
import math

from ..relational.database import Database


def round_half_up(value: float) -> int:
    """Round to the nearest integer, halves away from zero.

    Python's built-in ``round`` is banker's rounding; the paper's
    ``round(y)`` is "the integer closest to y", which we take as the
    conventional half-up rule.
    """
    return int(math.floor(value + 0.5)) if value >= 0 else int(math.ceil(value - 0.5))


class Heuristic(abc.ABC):
    """Base class for search heuristics.

    Args:
        target: the target critical instance the heuristic is compiled for.
    """

    #: registry key (e.g. ``"h1"``, ``"cosine"``)
    name: str = ""

    def __init__(self, target: Database) -> None:
        self._target = target

    @property
    def target(self) -> Database:
        """The target instance this heuristic was compiled for."""
        return self._target

    def __call__(self, state: Database) -> int:
        """The estimated distance from *state* to the target (checked).

        Raises:
            ValueError: if the estimate is negative.
        """
        value = self.estimate(state)
        if value < 0:
            raise ValueError(
                f"heuristic {self.name!r} returned negative estimate {value}"
            )
        return value

    @abc.abstractmethod
    def estimate(self, state: Database) -> int:
        """Compute the estimate for a state."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class ScaledHeuristic(Heuristic):
    """Base for heuristics with the paper's scaling constant ``k``.

    The normalized Levenshtein, normalized Euclidean, and cosine heuristics
    all map a similarity in ``[0, 1]`` onto ``[0, k]`` (k ≫ 1); the tuned
    values of k differ per search algorithm (§5, constants table).
    """

    #: default scaling constant when none is supplied
    default_k: float = 10.0

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target)
        self.k = float(self.default_k if k is None else k)
        if self.k < 1:
            raise ValueError(f"scaling constant k must be >= 1, got {self.k}")
