"""Beam search (extension — the paper's "further investigation of search
techniques developed in the AI literature is warranted").

Layered best-first search keeping only the ``width`` lowest-f states per
depth.  Memory is O(width), between IDA*/RBFS (path-linear) and A*
(frontier-exponential); the price is *incompleteness* — a too-narrow beam
can discard every path to the goal, so failure means "not found within the
beam", not "no mapping exists".  The algorithm ablation bench quantifies
the trade-off.
"""

from __future__ import annotations

from ..errors import MappingNotFound
from ..fira.base import Operator
from ..heuristics.base import Heuristic
from ..obs.events import PRUNE
from .problem import MappingProblem, SearchNode
from .stats import SearchStats

#: default beam width (states kept per layer)
DEFAULT_BEAM_WIDTH = 16


def make_beam(width: int = DEFAULT_BEAM_WIDTH):
    """Build a beam-search algorithm with the given width."""

    def beam(
        problem: MappingProblem, heuristic: Heuristic, stats: SearchStats
    ) -> list[Operator]:
        root = problem.start(heuristic)
        layer: list[tuple[SearchNode, Operator | None, list[Operator]]] = [
            (root, None, [])
        ]
        seen: set[SearchNode] = {root}
        depth = 0
        max_depth = problem.config.max_depth
        tracer = stats.tracer
        while layer:
            stats.frontier_size = len(layer)  # progress-heartbeat payload only
            stats.iteration(depth=depth, width=len(layer))
            for node, _last, path in layer:
                stats.examine(len(path), node.state)
                if problem.is_goal(node, stats):
                    return path
            if max_depth is not None and depth >= max_depth:
                break
            candidates: list[
                tuple[int, str, SearchNode, Operator, list[Operator]]
            ] = []
            for node, last, path in layer:
                for op, child in problem.successors(node, last, stats):
                    if child in seen:
                        if tracer.enabled:
                            tracer.emit(PRUNE, reason="seen", depth=depth + 1)
                        continue
                    seen.add(child)
                    f = len(path) + 1 + problem.estimate(child, stats)
                    candidates.append((f, op.sort_key[1], child, op, path))
            candidates.sort(key=lambda c: (c[0], c[1]))
            if candidates:
                stats.current_f = float(candidates[0][0])
            if tracer.enabled and len(candidates) > width:
                tracer.emit(
                    PRUNE,
                    reason="beam_cut",
                    depth=depth + 1,
                    dropped=len(candidates) - width,
                )
            layer = [
                (child, op, path + [op])
                for _f, _key, child, op, path in candidates[:width]
            ]
            depth += 1
        raise MappingNotFound(
            f"beam search (width {width}) exhausted its beam without a goal"
        )

    beam.__name__ = f"beam{width}"
    return beam


#: ready-made default-width beam
beam_search = make_beam()
