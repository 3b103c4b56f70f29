"""The memo tables are semantically invisible: cache on == cache off.

Every algorithm x heuristic combination must return the identical result —
same status, same operator sequence, same states examined *in the same
order* — whether each node keeps its memo (the problem as searched) or
forgets it before every read (:class:`Recomputing`), so that every
estimate, goal verdict and successor set is computed afresh.  This is the
contract that lets the tables exist at all: they may only change how fast
the search runs, never what it does.  The goldens pin IDA* and RBFS
against recorded runs; this sweep also covers A*, greedy and beam.
"""

from __future__ import annotations

import pytest

from repro.errors import MappingNotFound, SearchBudgetExceeded
from repro.heuristics import HEURISTIC_NAMES, make_heuristic
from repro.search import ALGORITHMS, MappingProblem, SearchConfig, SearchStats
from repro.search.problem import SearchNode
from repro.workloads import matching_pair

#: blind-ish heuristics explode combinatorially — keep their workload tiny
BLIND = ("h0", "h2")
BUDGET = 100_000


def forget(node: SearchNode) -> None:
    """Clear the node's memo, so the next read recomputes it."""
    node.h = node.goal = node.entries = node.more = None


class Recomputing(MappingProblem):
    """The reference: a problem whose every memo read is a miss."""

    def estimate(self, node, stats=None):
        forget(node)
        return super().estimate(node, stats)

    def is_goal(self, node, stats=None):
        forget(node)
        return super().is_goal(node, stats)

    def successors(self, node, last_op=None, stats=None):
        forget(node)
        return super().successors(node, last_op, stats)


def run_search(algorithm: str, heuristic: str, size: int, cache_on: bool):
    """One raw algorithm invocation, returning (status, ops, stats).

    *cache_on* False searches the :class:`Recomputing` reference.
    """
    pair = matching_pair(size)
    config = SearchConfig(max_states=BUDGET)
    kind = MappingProblem if cache_on else Recomputing
    problem = kind(pair.source, pair.target, config=config)
    h = make_heuristic(heuristic, pair.target, algorithm=algorithm)
    stats = SearchStats(budget=BUDGET, trace=True)
    try:
        ops = ALGORITHMS[algorithm](problem, h, stats)
        status = "found"
    except MappingNotFound:
        ops, status = None, "not_found"
    except SearchBudgetExceeded:
        ops, status = None, "budget_exceeded"
    return status, ops, stats


@pytest.mark.parametrize("heuristic", HEURISTIC_NAMES)
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_cache_on_off_identical(algorithm, heuristic):
    size = 3 if heuristic in BLIND else 5
    status_on, ops_on, stats_on = run_search(algorithm, heuristic, size, True)
    status_off, ops_off, stats_off = run_search(
        algorithm, heuristic, size, False
    )

    assert status_on == status_off
    on_ops = [str(op) for op in (ops_on or [])]
    off_ops = [str(op) for op in (ops_off or [])]
    assert on_ops == off_ops
    assert stats_on.states_examined == stats_off.states_examined
    assert stats_on.states_generated == stats_off.states_generated
    # not just the same count — the same states in the same order
    assert stats_on.examined_states == stats_off.examined_states
    # the reference really recomputed every read
    assert stats_off.cache_hits == 0
    assert stats_off.cache_misses > 0


def test_cached_run_reports_cache_traffic():
    """The cached arm actually exercises the table on a re-expanding search."""
    status, _, stats = run_search("ida", "h0", 3, cache_on=True)
    assert status == "found"
    assert stats.successor_cache_hits > 0
    assert stats.successor_cache_misses > 0
    assert stats.cache_hits == (
        stats.successor_cache_hits
        + stats.goal_cache_hits
        + stats.heuristic_cache_hits
    )
