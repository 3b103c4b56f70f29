"""Term-vector heuristics: Euclidean, normalized Euclidean, cosine (§3).

A database is viewed as a vector over the space of (REL, ATT, VALUE) token
triples: component ``d_i`` counts the occurrences of the i-th triple among
the database's TNF rows.  The paper indexes the full ``n³`` triple space
over the token universe of the critical instances; almost every component
is zero, and all three distances need only three exact integers: the
state's sum of squared counts ``Σx²``, the target's ``Σt²`` and their
inner product ``x·t``.  ``‖x − t‖² = Σx² + Σt² − 2·x·t``, and the cosine is
``x·t / (√Σx² · √Σt²)``.

Both sums come from each relation's per-column counts by value text id
(:meth:`~repro.relational.relation.Relation.column_text_counts`): a column
of relation ``R`` named ``A`` holds the components of the (``R``, ``A``,
·) triples.  The inner product visits only the state columns whose
(relation, attribute) the target has.
"""

from __future__ import annotations

import math

from ..relational.database import Database
from .base import Heuristic, ScaledHeuristic, round_half_up

#: the target's column counts by text id, by relation name, then attribute
TargetColumns = dict[str, dict[str, dict[int, int]]]

_NO_COLUMNS: dict[str, dict[int, int]] = {}


def target_columns(target: Database) -> tuple[TargetColumns, int]:
    """The target's column counts by (relation, attribute), and its Σt²."""
    columns: TargetColumns = {}
    sum_sq = 0
    for rel in target:
        counts = rel.column_text_counts()
        columns[rel.name] = {
            attr: dict(column) for attr, column in zip(rel.attributes, counts)
        }
        sum_sq += sum(c * c for column in counts for _text, c in column)
    return columns, sum_sq


def state_sums(state: Database, columns: TargetColumns) -> tuple[int, int]:
    """The state's Σx², and its inner product x·t with the target whose
    :func:`target_columns` are *columns*."""
    sum_sq = dot = 0
    for rel in state:
        wanted = columns.get(rel.name, _NO_COLUMNS)
        for attr, column in zip(rel.attributes, rel.column_text_counts()):
            other = wanted.get(attr)
            if other is None:
                for _text, c in column:
                    sum_sq += c * c
            else:
                for text, c in column:
                    sum_sq += c * c
                    dot += c * other.get(text, 0)
    return sum_sq, dot


class EuclideanHeuristic(Heuristic):
    """hE — unnormalized Euclidean distance in triple space."""

    name = "euclid"

    def __init__(self, target: Database) -> None:
        super().__init__(target)
        self._target_columns, self._target_sum_sq = target_columns(target)

    def estimate(self, state: Database) -> int:
        sum_sq, dot = state_sums(state, self._target_columns)
        return round_half_up(math.sqrt(sum_sq + self._target_sum_sq - 2 * dot))


class NormalizedEuclideanHeuristic(ScaledHeuristic):
    """h|E| — Euclidean distance between unit-normalized vectors, scaled by k.

    For unit vectors ``‖s/‖s‖ − t/‖t‖‖² = 2 − 2·cos(s, t)``, so the estimate
    is one float tail over the three exact integers.
    """

    name = "euclid_norm"
    default_k = 7.0  # the paper's tuned IDA value; RBFS uses 20

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target, k)
        self._target_columns, self._target_sum_sq = target_columns(target)

    def estimate(self, state: Database) -> int:
        sum_sq, dot = state_sums(state, self._target_columns)
        target_sum_sq = self._target_sum_sq
        if sum_sq == 0 and target_sum_sq == 0:
            return 0  # both databases are empty of cells
        if sum_sq == 0 or target_sum_sq == 0:
            return round_half_up(self.k)
        cosine = dot / (math.sqrt(sum_sq) * math.sqrt(target_sum_sq))
        squared = max(0.0, 2.0 - 2.0 * cosine)
        return round_half_up(self.k * math.sqrt(squared))


class CosineHeuristic(ScaledHeuristic):
    """hcos — ``k * (1 - cos(x, t))``; low for near-parallel vectors.

    The cosine is 0 when either vector is zero.
    """

    name = "cosine"
    default_k = 5.0  # the paper's tuned IDA value; RBFS uses 24

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target, k)
        self._target_columns, self._target_sum_sq = target_columns(target)
        self._target_norm = math.sqrt(self._target_sum_sq)

    def estimate(self, state: Database) -> int:
        sum_sq, dot = state_sums(state, self._target_columns)
        if sum_sq == 0 and self._target_sum_sq == 0:
            return 0  # both databases are empty of cells
        denominator = math.sqrt(sum_sq) * self._target_norm
        similarity = 0.0 if denominator == 0 else dot / denominator
        return round_half_up(self.k * (1.0 - similarity))
