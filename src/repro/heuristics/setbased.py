"""Set-based similarity heuristics h0–h3 (§3, "Set Based Similarity").

All are defined over the TNF projections π_REL, π_ATT, π_VALUE of the
candidate state ``x`` and target ``t``:

* ``h0(x) = 0`` — the blind baseline inducing brute-force search;
* ``h1`` counts target relation/attribute/value tokens missing from ``x``;
* ``h2`` counts cross-level overlaps (target relation names appearing as
  attribute names or data values of ``x``, etc.) — a lower bound on the
  promotions (↑) and demotions (↓) still required;
* ``h3 = max(h1, h2)``.

The projections are read as sets of text-token ids, not strings: a
relation name, an attribute name and a value's text share one token when
they are the same string, so every difference and cross-level overlap
counts what the string sets would.  They are assembled per estimate from
views each relation keeps, and renames carry: its value text ids, its
attribute-name ids and, for a relation with NULLs, which columns hold a
non-NULL value.  A relation without a non-NULL cell is absent from TNF and
contributes nothing.
"""

from __future__ import annotations

from collections.abc import Set

from ..relational.database import Database
from ..relational.relation import _interned_name_set
from .base import Heuristic

Projections = tuple[Set[int], Set[int], Set[int]]

_EMPTY: frozenset[int] = frozenset()


def token_projections(db: Database) -> Projections:
    """(π_REL, π_ATT, π_VALUE) of *db*'s TNF as sets of text-token ids."""
    relations = db.relations
    if len(relations) == 1:
        rel = relations[0]
        values = rel.value_text_ids()
        if not values:
            return _EMPTY, _EMPTY, _EMPTY
        return (
            _interned_name_set((rel.name,)),
            rel.filled_attribute_ids(),
            values,
        )
    names = tuple(rel.name for rel in relations if rel.value_text_ids())
    attributes: set[int] = set()
    for rel in relations:
        attributes |= rel.filled_attribute_ids()
    return _interned_name_set(names), attributes, db.value_text_ids()


def _missing(target: Projections, state: Projections) -> int:
    """h1: target tokens absent from the state, level by level."""
    t_rel, t_att, t_val = target
    x_rel, x_att, x_val = state
    return len(t_rel - x_rel) + len(t_att - x_att) + len(t_val - x_val)


def _cross_level(target: Projections, state: Projections) -> int:
    """h2: target tokens the state holds at another level."""
    t_rel, t_att, t_val = target
    x_rel, x_att, x_val = state
    return (
        len(t_rel & x_att)
        + len(t_rel & x_val)
        + len(t_att & x_rel)
        + len(t_att & x_val)
        + len(t_val & x_rel)
        + len(t_val & x_att)
    )


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
        self._projections = token_projections(target)

    def estimate(self, state: Database) -> int:
        return _missing(self._projections, token_projections(state))


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
        self._projections = token_projections(target)

    def estimate(self, state: Database) -> int:
        return _cross_level(self._projections, token_projections(state))


class MaxSetHeuristic(Heuristic):
    """h3 — pointwise maximum of h1 and h2."""

    name = "h3"

    def __init__(self, target: Database) -> None:
        super().__init__(target)
        self._projections = token_projections(target)

    def estimate(self, state: Database) -> int:
        target = self._projections
        state_projections = token_projections(state)
        return max(
            _missing(target, state_projections),
            _cross_level(target, state_projections),
        )
