"""Iterative Deepening A* (IDA*), one of the paper's two algorithms (§2.3).

IDA* performs repeated depth-first probes bounded by the f-value
``f(x) = g(x) + h(x)``, raising the bound to the smallest exceeded f after
each probe.  Memory is linear in the search depth; the price is re-expansion
of shallow states on every iteration — which the paper accepts ("although
they both perform redundant explorations, they do not suffer from the
exponential memory use of basic A*").
"""

from __future__ import annotations

import math

from ..errors import MappingNotFound
from ..fira.base import Operator
from ..heuristics.base import Heuristic
from ..obs.events import PRUNE
from .problem import MappingProblem, SearchNode
from .stats import SearchStats

_FOUND = object()


def ida_star(
    problem: MappingProblem, heuristic: Heuristic, stats: SearchStats
) -> list[Operator]:
    """Run IDA* and return the operator path to a goal state.

    Raises:
        MappingNotFound: if the (pruned) space contains no goal.
        SearchBudgetExceeded: if ``stats.budget`` is exhausted.
    """
    root = problem.start(heuristic)
    path_ops: list[Operator] = []
    on_path: set[SearchNode] = {root}
    max_depth = problem.config.max_depth
    tracer = stats.tracer
    estimate = problem.estimate
    is_goal = problem.is_goal
    successors = problem.successors

    def probe(node: SearchNode, last_op: Operator | None, g: int, bound: float):
        """DFS bounded by f <= bound; returns _FOUND or the next bound."""
        stats.frontier_size = len(on_path)  # progress-heartbeat payload only
        stats.examine(g, node.state)
        f = g + estimate(node, stats)
        if f > bound:
            return f
        if is_goal(node, stats):
            return _FOUND
        if max_depth is not None and g >= max_depth:
            return math.inf
        minimum: float = math.inf
        for op, child in successors(node, last_op, stats):
            if child in on_path:
                if tracer.enabled:
                    tracer.emit(PRUNE, reason="on_path", depth=g + 1)
                continue
            path_ops.append(op)
            on_path.add(child)
            outcome = probe(child, op, g + 1, bound)
            if outcome is _FOUND:
                return _FOUND
            path_ops.pop()
            on_path.remove(child)
            if outcome < minimum:
                minimum = outcome
        return minimum

    try:
        bound: float = estimate(root, stats)
        while True:
            stats.iteration(bound=bound)
            outcome = probe(root, None, 0, bound)
            if outcome is _FOUND:
                return list(path_ops)
            if math.isinf(outcome):
                raise MappingNotFound(
                    f"IDA* exhausted the search space (final bound {bound})"
                )
            bound = outcome
    finally:
        # probe refers to itself through its closure cell; breaking that
        # cycle lets reference counting free the node table on return
        probe = None  # noqa: F841
