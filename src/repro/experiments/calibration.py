"""Scaling-constant calibration (the §5 constants table).

The paper tunes the scaling constant ``k`` of the normalized Euclidean,
cosine, and Levenshtein heuristics per search algorithm by "extensive
empirical evaluation ... on the data sets".  This module re-derives the
constants: sweep candidate k values over a calibration workload (synthetic
matching sizes + a BAMM sample) and pick the k minimising total states
examined, breaking ties toward smaller k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..search.config import SearchConfig
from ..search.engine import discover_mapping
from ..workloads.bamm import bamm_domain
from ..workloads.synthetic import matching_pair

#: heuristics that carry a scaling constant
SCALED_HEURISTICS: tuple[str, ...] = ("euclid_norm", "cosine", "levenshtein")

#: candidate constants swept by default (covers the paper's 5..24 range)
DEFAULT_K_GRID: tuple[float, ...] = tuple(range(1, 31))


@dataclass(frozen=True)
class CalibrationTask:
    """One (source, target) pair used for calibration."""

    name: str
    source: object
    target: object


def calibration_tasks(
    matching_sizes: Sequence[int] = (2, 3, 4, 5),
    bamm_samples: int = 4,
    seed: int = 2006,
) -> list[CalibrationTask]:
    """A small mixed workload: synthetic matching + BAMM interfaces."""
    tasks: list[CalibrationTask] = []
    for size in matching_sizes:
        pair = matching_pair(size)
        tasks.append(CalibrationTask(f"match-{size}", pair.source, pair.target))
    domain = bamm_domain("Books", seed)
    for task in domain.tasks[:bamm_samples]:
        tasks.append(
            CalibrationTask(
                f"bamm-{task.interface_id}", task.source, task.target
            )
        )
    return tasks


def total_states(
    algorithm: str,
    heuristic: str,
    k: float,
    tasks: Sequence[CalibrationTask],
    budget: int = 20_000,
) -> int:
    """Total states examined by (algorithm, heuristic, k) over *tasks*.

    Budget-exceeded tasks contribute the full budget, penalising constants
    that stall the search.
    """
    config = SearchConfig(max_states=budget)
    total = 0
    for task in tasks:
        result = discover_mapping(
            task.source,
            task.target,
            algorithm=algorithm,
            heuristic=heuristic,
            k=k,
            config=config,
            simplify=False,
        )
        total += result.states_examined
    return total


def calibrate(
    algorithm: str,
    heuristic: str,
    grid: Sequence[float] = DEFAULT_K_GRID,
    tasks: Sequence[CalibrationTask] | None = None,
    budget: int = 20_000,
) -> tuple[float, dict[float, int]]:
    """Sweep *grid* and return (best k, {k: total states}).

    Ties break toward the smallest k.
    """
    if tasks is None:
        tasks = calibration_tasks()
    costs = {
        k: total_states(algorithm, heuristic, k, tasks, budget) for k in grid
    }
    best = min(sorted(costs), key=lambda k: costs[k])
    return best, costs

