"""String-view heuristic: normalized Levenshtein distance (§3).

A TNF database ``d`` with rows ``(k_i, r_i, a_i, v_i)`` is rendered as the
concatenation of the lexicographically sorted strings ``r_i + a_i + v_i``;
the heuristic is the Levenshtein edit distance between the state string and
the target string, normalized by the longer length and scaled to ``[0, k]``.
"""

from __future__ import annotations

from ..relational.database import Database
from ..relational.tnf import database_string
from .base import ScaledHeuristic, round_half_up


def levenshtein(left: str, right: str) -> int:
    """Classic single-character insert/delete/substitute edit distance.

    Myers' bit-parallel algorithm (J. ACM 46(3), 1999) in Hyyrö's
    edit-distance form (2003): one column of the DP table is held as the
    bit vectors of its vertical +1/-1 deltas, one bit per character of the
    shorter string, and a text character advances the column with a
    constant number of integer operations.  Python ints grow as needed, so
    strings of any length take this one path.
    """
    if left == right:
        return 0
    # Keep the bit-vector dimension (right) the shorter one.
    if len(right) > len(left):
        left, right = right, left
    if not right:
        return len(left)
    match: dict[str, int] = {}
    bit = 1
    for char in right:
        match[char] = match.get(char, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    plus, minus = mask, 0  # vertical deltas: all +1 in the first column
    distance = len(right)
    for char in left:
        eq = match.get(char, 0)
        vertical = eq | minus
        horizontal = (((eq & plus) + plus) ^ plus) | eq
        hplus = minus | ~(horizontal | plus)
        hminus = plus & horizontal
        if hplus & last:
            distance += 1
        elif hminus & last:
            distance -= 1
        # The top row is 0, 1, 2, ...: its horizontal delta is always +1.
        hplus = (hplus << 1) | 1
        plus = ((hminus << 1) | ~(vertical | hplus)) & mask
        minus = hplus & vertical
    return distance


class LevenshteinHeuristic(ScaledHeuristic):
    """hL — scaled, length-normalized Levenshtein distance between the
    string views of the state and the target."""

    name = "levenshtein"
    default_k = 11.0  # the paper's tuned IDA value; RBFS uses 15

    def __init__(self, target: Database, k: float | None = None) -> None:
        super().__init__(target, k)
        self._target_string = database_string(target)

    def estimate(self, state: Database) -> int:
        state_string = database_string(state)
        longest = max(len(state_string), len(self._target_string))
        if longest == 0:
            return 0
        distance = levenshtein(state_string, self._target_string)
        return round_half_up(self.k * distance / longest)
