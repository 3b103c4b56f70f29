"""Term-vector heuristics: Euclidean, normalized Euclidean, cosine (§3).

A database is viewed as a vector over the space of (REL, ATT, VALUE) token
triples: component ``d_i`` counts the occurrences of the i-th triple among
the database's TNF rows.  The paper indexes the full ``n³`` triple space
over the token universe of the critical instances; since almost every
component is zero we represent vectors sparsely — all three distances only
involve the union of the two supports.
"""

from __future__ import annotations

import math
from collections import Counter

from ..relational.database import Database
from ..relational.tnf import tnf_triples
from .base import Heuristic, ScaledHeuristic, round_half_up

TermVector = Counter


def term_vector(db: Database) -> TermVector:
    """The sparse (REL, ATT, VALUE)-triple count vector of *db*.

    Memoised on *db* alongside the other TNF-derived views (the underlying
    ``tnf_triples`` tuple was already cached; the Counter built from it was
    not, and heuristics call this once per estimate).  The returned Counter
    is shared — treat it as read-only.
    """
    return db.cached_view("term_vector", lambda: Counter(tnf_triples(db)))


def euclidean_distance(left: TermVector, right: TermVector) -> float:
    """Euclidean distance between two sparse vectors."""
    keys = left.keys() | right.keys()
    return math.sqrt(sum((left[k] - right[k]) ** 2 for k in keys))


def vector_norm(vector: TermVector) -> float:
    """The L2 norm of a sparse vector."""
    return math.sqrt(sum(count * count for count in vector.values()))


def cosine_similarity(
    left: TermVector,
    right: TermVector,
    left_norm: float | None = None,
    right_norm: float | None = None,
) -> float:
    """Cosine of the angle between two sparse vectors (0 for a zero vector).

    Callers that hold one operand fixed (heuristics compiled against a
    target) can pass its precomputed norm to skip recomputing it per call.
    """
    if left_norm is None:
        left_norm = vector_norm(left)
    if right_norm is None:
        right_norm = vector_norm(right)
    denominator = left_norm * right_norm
    if denominator == 0:
        return 0.0
    dot = sum(left[k] * right[k] for k in left.keys() & right.keys())
    return dot / denominator


class EuclideanHeuristic(Heuristic):
    """hE — unnormalized Euclidean distance in triple space."""

    name = "euclid"

    def __init__(self, target: Database) -> None:
        super().__init__(target)
        self._target_vector = term_vector(target)

    def estimate(self, state: Database) -> int:
        return round_half_up(euclidean_distance(term_vector(state), self._target_vector))


class NormalizedEuclideanHeuristic(ScaledHeuristic):
    """h|E| — Euclidean distance between unit-normalized vectors, scaled by k.

    For unit vectors ``‖s/‖s‖ − t/‖t‖‖² = 2 − 2·cos(s, t)``, so the estimate
    is one float tail over three exact integer aggregates: the state's sum
    of squared counts, the target's, and their inner product.
    """

    name = "euclid_norm"
    default_k = 7.0  # the paper's tuned IDA value; RBFS uses 20

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target, k)
        self._target_vector = term_vector(target)
        self._target_sum_sq = sum(c * c for c in self._target_vector.values())

    def estimate(self, state: Database) -> int:
        state_vector = term_vector(state)
        sum_sq = sum(count * count for count in state_vector.values())
        target_vector = self._target_vector
        target_sum_sq = self._target_sum_sq
        if sum_sq == 0 and target_sum_sq == 0:
            return 0  # both databases are empty of cells
        if sum_sq == 0 or target_sum_sq == 0:
            return round_half_up(self.k)
        dot = sum(
            state_vector[k] * target_vector[k]
            for k in state_vector.keys() & target_vector.keys()
        )
        cosine = dot / (math.sqrt(sum_sq) * math.sqrt(target_sum_sq))
        squared = max(0.0, 2.0 - 2.0 * cosine)
        return round_half_up(self.k * math.sqrt(squared))


class CosineHeuristic(ScaledHeuristic):
    """hcos — ``k * (1 - cosine_similarity)``; low for near-parallel vectors."""

    name = "cosine"
    default_k = 5.0  # the paper's tuned IDA value; RBFS uses 24

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target, k)
        self._target_vector = term_vector(target)
        self._target_norm = vector_norm(self._target_vector)

    def estimate(self, state: Database) -> int:
        state_vector = term_vector(state)
        if not state_vector and not self._target_vector:
            return 0  # both databases are empty of cells
        similarity = cosine_similarity(
            state_vector, self._target_vector, right_norm=self._target_norm
        )
        return round_half_up(self.k * (1.0 - similarity))
