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

try:  # numpy accelerates the DP rows; the pure-Python path remains correct
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is a soft dependency
    _np = None

#: below this size the pure-Python DP beats numpy's per-call overhead
_NUMPY_THRESHOLD = 64


def _levenshtein_python(left: str, right: str) -> int:
    """Two-row dynamic program: O(|left|·|right|) time, O(|right|) memory."""
    previous = list(range(len(right) + 1))
    for i, lchar in enumerate(left, start=1):
        current = [i]
        for j, rchar in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (lchar != rchar)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def _levenshtein_numpy(left: str, right: str) -> int:
    """Row-vectorised DP.

    Substitution/deletion are elementwise; the insertion chain
    ``cur[j] <= cur[j-1] + 1`` is closed with the classic trick
    ``cur = min.accumulate(cur - j) + j``.
    """
    right_codes = _np.frombuffer(right.encode("utf-32-le"), dtype=_np.uint32)
    n = len(right)
    offsets = _np.arange(n + 1, dtype=_np.int64)
    previous = offsets.copy()
    current = _np.empty(n + 1, dtype=_np.int64)
    for i, lchar in enumerate(left, start=1):
        current[0] = i
        substitute = previous[:-1] + (right_codes != ord(lchar))
        delete = previous[1:] + 1
        current[1:] = _np.minimum(substitute, delete)
        current -= offsets
        _np.minimum.accumulate(current, out=current)
        current += offsets
        previous, current = current, previous
    return int(previous[-1])


def levenshtein(left: str, right: str) -> int:
    """Classic single-character insert/delete/substitute edit distance."""
    if left == right:
        return 0
    # Keep the inner dimension (right) the shorter one.
    if len(right) > len(left):
        left, right = right, left
    if not right:
        return len(left)
    if _np is not None and len(right) >= _NUMPY_THRESHOLD:
        return _levenshtein_numpy(left, right)
    return _levenshtein_python(left, right)


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
