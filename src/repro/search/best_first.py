"""A* and greedy best-first baselines (ablation extensions).

The paper reports that "early implementations of TUPELO" used plain A*
best-first search and were ineffective because of its exponential memory
use; IDA* and RBFS replaced it.  We provide A* (f = g + h, closed set) and
greedy best-first (f = h) so the ablation benches can quantify that
trade-off: A* examines the fewest states but holds the frontier + closed
set in memory; IDA*/RBFS re-examine states but stay path-linear.
"""

from __future__ import annotations

import heapq
import itertools

from ..errors import MappingNotFound
from ..fira.base import Operator
from ..heuristics.base import Heuristic
from ..obs.events import PRUNE
from .problem import MappingProblem, SearchNode
from .stats import SearchStats


def _best_first(
    problem: MappingProblem,
    heuristic: Heuristic,
    stats: SearchStats,
    weight_g: int,
) -> list[Operator]:
    """Generic priority-queue best-first search.

    ``weight_g=1`` is A*; ``weight_g=0`` is greedy best-first.
    """
    root = problem.start(heuristic)
    estimate = problem.estimate
    counter = itertools.count()  # FIFO tie-break for determinism
    frontier: list[tuple[float, int, SearchNode]] = []
    heapq.heappush(frontier, (float(estimate(root, stats)), next(counter), root))
    best_g: dict[SearchNode, int] = {root: 0}
    parent: dict[SearchNode, tuple[SearchNode, Operator] | None] = {root: None}
    closed: set[SearchNode] = set()
    tracer = stats.tracer

    while frontier:
        _f, _tick, node = heapq.heappop(frontier)
        if node in closed:
            if tracer.enabled:
                tracer.emit(PRUNE, reason="closed")
            continue
        closed.add(node)
        g = best_g[node]
        stats.current_f = _f  # progress-heartbeat payload only
        stats.frontier_size = len(frontier)
        stats.examine(g, node.state)
        if problem.is_goal(node, stats):
            return _reconstruct(parent, node)
        came_from = parent[node]
        last_op = came_from[1] if came_from is not None else None
        for op, child in problem.successors(node, last_op, stats):
            child_g = g + 1
            known = best_g.get(child)
            if known is not None and known <= child_g:
                if tracer.enabled:
                    tracer.emit(PRUNE, reason="dominated", depth=child_g)
                continue
            best_g[child] = child_g
            parent[child] = (node, op)
            if child in closed:
                closed.remove(child)  # re-open: a cheaper path appeared
            f = weight_g * child_g + estimate(child, stats)
            heapq.heappush(frontier, (float(f), next(counter), child))
    raise MappingNotFound("best-first search exhausted the search space")


def _reconstruct(
    parent: dict[SearchNode, tuple[SearchNode, Operator] | None], node: SearchNode
) -> list[Operator]:
    ops: list[Operator] = []
    while True:
        came_from = parent[node]
        if came_from is None:
            break
        node, op = came_from
        ops.append(op)
    ops.reverse()
    return ops


def a_star(
    problem: MappingProblem, heuristic: Heuristic, stats: SearchStats
) -> list[Operator]:
    """A* search (f = g + h) with a closed set."""
    return _best_first(problem, heuristic, stats, weight_g=1)


def greedy(
    problem: MappingProblem, heuristic: Heuristic, stats: SearchStats
) -> list[Operator]:
    """Greedy best-first search (f = h)."""
    return _best_first(problem, heuristic, stats, weight_g=0)
