"""Recursive Best-First Search (RBFS), the paper's second algorithm (§2.3).

RBFS explores best-first within linear memory: at each node it recurses
into the lowest-f child with an f-limit equal to the best *alternative*
f-value anywhere on the current path, and on return stores the child's
backed-up f so abandoned subtrees can be re-entered at the right cost
later.  The paper found RBFS generally superior to IDA* (§5.4).
"""

from __future__ import annotations

import math

from ..errors import MappingNotFound
from ..fira.base import Operator
from ..heuristics.base import Heuristic
from ..obs.events import PRUNE
from .problem import MappingProblem, SearchNode
from .stats import SearchStats


class _Found(Exception):
    """Internal control flow: a goal was reached (path is on the stack)."""


def rbfs(
    problem: MappingProblem, heuristic: Heuristic, stats: SearchStats
) -> list[Operator]:
    """Run RBFS and return the operator path to a goal state.

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

    def visit(
        node: SearchNode,
        last_op: Operator | None,
        g: int,
        f_stored: float,
        f_limit: float,
    ) -> float:
        """Explore *node* within *f_limit*; return its backed-up f-value.

        Raises _Found when a goal is reached (path_ops then holds the path).
        """
        stats.frontier_size = len(on_path)  # progress-heartbeat payload only
        stats.examine(g, node.state)
        if is_goal(node, stats):
            raise _Found
        if max_depth is not None and g >= max_depth:
            return math.inf
        # [f, tie-break text, op, child] — mutable f for back-up
        entries: list[list] = []
        for op, child in successors(node, last_op, stats):
            if child in on_path:
                if tracer.enabled:
                    tracer.emit(PRUNE, reason="on_path", depth=g + 1)
                continue
            f_child = max(g + 1 + estimate(child, stats), f_stored)
            entries.append([f_child, op.sort_key[1], op, child])
        if not entries:
            return math.inf
        while True:
            entries.sort(key=lambda e: (e[0], e[1]))
            best = entries[0]
            if best[0] > f_limit or math.isinf(best[0]):
                # second disjunct: every child is exhausted — without it the
                # loop would re-expand dead subtrees forever when f_limit=inf
                return best[0]
            alternative = entries[1][0] if len(entries) > 1 else math.inf
            child_limit = min(f_limit, alternative)
            stats.iteration(
                f=best[0],
                limit=child_limit if math.isfinite(child_limit) else None,
                depth=g + 1,
            )
            op, child = best[2], best[3]
            path_ops.append(op)
            on_path.add(child)
            # On _Found the exception propagates and the path is preserved;
            # on a normal return the child is unwound from the path.
            best[0] = visit(child, op, g + 1, best[0], child_limit)
            path_ops.pop()
            on_path.remove(child)

    try:
        root_f = float(estimate(root, stats))
        visit(root, None, 0, root_f, math.inf)
    except _Found:
        return list(path_ops)
    finally:
        # visit refers to itself through its closure cell; breaking that
        # cycle lets reference counting free the node table on return
        visit = None  # noqa: F841
    raise MappingNotFound("RBFS exhausted the search space")
