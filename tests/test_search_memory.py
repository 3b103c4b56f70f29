"""What a search leaves in memory.

IDA* and RBFS are the paper's linear-memory algorithms (§2.3); their node
table is a cache that must die with the search.  Every algorithm must
leave its problem to reference counting when it returns, with no cycle
that waits for the collector.  And the graph a search does keep while its
problem lives must stay lean: few collector-tracked containers per state.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.heuristics import make_heuristic
from repro.search import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    MappingProblem,
    SearchConfig,
    SearchStats,
    discover_mapping,
)
from repro.search import engine
from repro.workloads import flights_a, flights_b, inventory_domain, matching_pair

#: enough examinations to build a real graph, few enough to stay quick
BUDGET = 3_000


def _fig1():
    return flights_b(), flights_a(), (), None


def _fig5():
    pair = matching_pair(4)
    return pair.source, pair.target, (), None


def _fig9():
    task = inventory_domain().task(2)
    return task.source, task.target, task.correspondences, task.registry


TASKS = {"fig1-b-to-a": _fig1, "fig5-n4": _fig5, "fig9-inventory-n2": _fig9}


@pytest.fixture
def collector_off():
    """Only reference counting frees objects while the test runs."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("task", sorted(TASKS))
@pytest.mark.parametrize("algorithm", ALGORITHM_NAMES)
def test_search_frees_its_problem(algorithm, task, monkeypatch, collector_off):
    source, target, correspondences, registry = TASKS[task]()
    made: list[weakref.ref] = []

    class Recorded(MappingProblem):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(weakref.ref(self))

    monkeypatch.setattr(engine, "MappingProblem", Recorded)
    result = discover_mapping(
        source,
        target,
        algorithm=algorithm,
        heuristic="h1",
        correspondences=correspondences,
        registry=registry,
        config=SearchConfig(max_states=BUDGET),
    )
    assert result.stats.states_examined > 1
    assert len(made) == 1
    assert made[0]() is None, f"{algorithm} kept its problem alive"


def test_node_table_diet():
    """Fig. 5 IDA*/h0 keeps at most 7 tracked containers per state.

    Counted with the problem still referenced, after a full collection, on
    a second search: the first fills the process-wide operator and schema
    flyweights, which every later search shares.
    """
    pair = matching_pair(5)

    def search() -> MappingProblem:
        problem = MappingProblem(pair.source, pair.target)
        heuristic = make_heuristic("h0", pair.target, algorithm="ida")
        ALGORITHMS["ida"](problem, heuristic, SearchStats())
        return problem

    search()
    gc.collect()
    before = len(gc.get_objects())
    problem = search()
    gc.collect()
    tracked = len(gc.get_objects()) - before
    states = len(problem._nodes)
    assert states > 1_000
    assert tracked / states <= 7, f"{tracked} containers for {states} states"
