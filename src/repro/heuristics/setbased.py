"""Set-based similarity heuristics h0–h3 (§3, "Set Based Similarity").

All are defined over the TNF projections π_REL, π_ATT, π_VALUE of the
candidate state ``x`` and target ``t``:

* ``h0(x) = 0`` — the blind baseline inducing brute-force search;
* ``h1`` counts target relation/attribute/value tokens missing from ``x``;
* ``h2`` counts cross-level overlaps (target relation names appearing as
  attribute names or data values of ``x``, etc.) — a lower bound on the
  promotions (↑) and demotions (↓) still required;
* ``h3 = max(h1, h2)``.
"""

from __future__ import annotations

from ..relational.database import Database
from ..relational.tnf import tnf_projections
from .base import Heuristic


class BlindHeuristic(Heuristic):
    """h0 — constant zero; turns IDA*/RBFS into blind uniform-cost search."""

    name = "h0"

    def estimate(self, state: Database) -> int:
        return 0


class MissingTokensHeuristic(Heuristic):
    """h1 — target TNF tokens (REL/ATT/VALUE level-wise) missing from x."""

    name = "h1"

    def __init__(self, target: Database) -> None:
        super().__init__(target)
        self._t_rel, self._t_att, self._t_val = tnf_projections(target)

    def estimate(self, state: Database) -> int:
        x_rel, x_att, x_val = tnf_projections(state)
        return (
            len(self._t_rel - x_rel)
            + len(self._t_att - x_att)
            + len(self._t_val - x_val)
        )


class CrossLevelHeuristic(Heuristic):
    """h2 — cross-level overlaps between target and state TNF projections.

    Counts target tokens that are present in ``x`` but *at the wrong level*
    (e.g. a target attribute name appearing as a data value of ``x`` needs a
    promotion).  The paper reads this as "the minimum number of data
    promotions (↑) and metadata demotions (↓) needed".
    """

    name = "h2"

    def __init__(self, target: Database) -> None:
        super().__init__(target)
        self._t_rel, self._t_att, self._t_val = tnf_projections(target)

    def estimate(self, state: Database) -> int:
        x_rel, x_att, x_val = tnf_projections(state)
        return (
            len(self._t_rel & x_att)
            + len(self._t_rel & x_val)
            + len(self._t_att & x_rel)
            + len(self._t_att & x_val)
            + len(self._t_val & x_rel)
            + len(self._t_val & x_att)
        )


class MaxSetHeuristic(Heuristic):
    """h3 — pointwise maximum of h1 and h2."""

    name = "h3"

    def __init__(self, target: Database) -> None:
        super().__init__(target)
        self._h1 = MissingTokensHeuristic(target)
        self._h2 = CrossLevelHeuristic(target)

    def estimate(self, state: Database) -> int:
        return max(self._h1.estimate(state), self._h2.estimate(state))
