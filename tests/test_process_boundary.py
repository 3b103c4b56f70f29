"""Process-boundary invariant: a spec searches the same in any process.

One list of :class:`~repro.parallel.fanout.PointSpec`\\ s runs in this
process and through ``fork``, ``forkserver`` and ``spawn`` pools; every run
must give identical normalized points.

Each run must also raise **zero** ``resilience.*`` counters.  A pool whose
workers all crash degrades to a serial re-run in this process, and the
equality would then hold without ever crossing a process line.
"""

from __future__ import annotations

import pytest

from repro.parallel import (
    PointSpec,
    normalize_point,
    run_experiment_points,
    supports_start_method,
)
from repro.resilience.runtime import resilience_counters, resilience_delta
from repro.search import SearchConfig
from repro.workloads import inventory_domain, matching_pair

START_METHODS = ("fork", "forkserver", "spawn")


def _specs() -> list[PointSpec]:
    config = SearchConfig(max_states=20_000)
    specs = []
    for n in range(1, 6):
        pair = matching_pair(n)
        specs.append(
            PointSpec(
                index=len(specs),
                x=n,
                source=pair.source,
                target=pair.target,
                algorithm="ida",
                heuristic="h1",
                config=config,
            )
        )
    domain = inventory_domain()
    for n in (1, 2):
        task = domain.task(n)
        specs.append(
            PointSpec(
                index=len(specs),
                x=n,
                source=task.source,
                target=task.target,
                algorithm="ida",
                heuristic="h1",
                config=config,
                correspondences=tuple(task.correspondences),
                registry_provider=domain.name,
            )
        )
    return specs


def _normalized(points) -> list:
    return [normalize_point(p) for p in points]


@pytest.fixture(scope="module")
def in_process():
    baseline = resilience_counters()
    points = _normalized(run_experiment_points(_specs(), workers=0))
    assert resilience_delta(baseline) == {}
    return points


@pytest.mark.parametrize("method", START_METHODS)
def test_pool_points_equal_in_process_points(method, in_process):
    if not supports_start_method(method):
        pytest.skip(f"start method {method!r} not available here")
    baseline = resilience_counters()
    points = run_experiment_points(_specs(), workers=2, start_method=method)
    assert resilience_delta(baseline) == {}
    assert _normalized(points) == in_process
    assert all(p.found for p in points)
