"""Paper goldens: states examined and discovered mappings, pinned.

Every case runs one discovery from the paper's evaluation and compares its
status, ``states_examined``, ``states_generated`` and discovered expression
text with ``tests/goldens/search.json``.  The search is defined by the
states it examines and the mapping it finds, so any change to the kernel,
the proposal rules or a heuristic that alters either shows up here as a
reviewed diff of that file.

The file is rewritten only by running this module with
``--update-goldens``::

    PYTHONPATH=src python -m pytest tests/test_goldens.py --update-goldens

Cases:

* Fig. 5/6 synthetic matching, sizes 2-5 under IDA* and RBFS with each of
  the eight paper heuristics, plus blind IDA* at size 6;
* Fig. 1 flights, FlightsB to FlightsA and to FlightsC, under IDA* and
  RBFS with each of the eight paper heuristics;
* Fig. 7/8 BAMM, every interface of the four domains (211) under
  RBFS/h|E|;
* Fig. 9 Inventory and Real Estate with 2 and 4 functions under IDA*/h1
  and RBFS/h1, and Inventory with 8 functions under IDA*/h0 at the
  paper's 10^6 budget;
* the three non-default §2.3 pruning configurations (symmetry breaking
  off, target pruning off, both off) on small synthetic and Flights
  tasks, since successor proposal has a separate path for each.
"""

from __future__ import annotations

import json
from functools import cache
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import SearchConfig, discover_mapping
from repro.heuristics import HEURISTIC_NAMES
from repro.workloads import (
    DOMAIN_NAMES,
    bamm_domain,
    flights_a,
    flights_b,
    flights_c,
    flights_registry,
    inventory_domain,
    matching_pair,
    real_estate_domain,
    total_cost_correspondence,
)

GOLDENS = Path(__file__).parent / "goldens" / "search.json"


def _synthetic_cases() -> dict:
    cases = {}
    for n in range(2, 6):
        for algorithm in ("ida", "rbfs"):
            for heuristic in HEURISTIC_NAMES:
                cases[f"fig5/n={n}/{algorithm}/{heuristic}"] = (
                    lambda n=n: matching_pair(n),
                    algorithm,
                    heuristic,
                    None,
                )
    cases["fig5/n=6/ida/h0"] = (lambda: matching_pair(6), "ida", "h0", None)
    return cases


def _flights_b_to_a():
    return SimpleNamespace(source=flights_b(), target=flights_a())


def _flights_b_to_c():
    return SimpleNamespace(
        source=flights_b(),
        target=flights_c(),
        correspondences=(total_cost_correspondence(),),
        registry=flights_registry(),
    )


def _flights_cases() -> dict:
    """Every paper heuristic under IDA* and RBFS, to FlightsA and FlightsC.

    Fig. 1 states carry NULLs and several relations, which the synthetic
    single-relation states never do.
    """
    cases = {}
    for name, build in (("b->a", _flights_b_to_a), ("b->c", _flights_b_to_c)):
        for algorithm in ("ida", "rbfs"):
            for heuristic in HEURISTIC_NAMES:
                cases[f"fig1/{name}/{algorithm}/{heuristic}"] = (
                    build,
                    algorithm,
                    heuristic,
                    None,
                )
    return cases


_bamm = cache(bamm_domain)


def _bamm_cases() -> dict:
    return {
        f"bamm/{domain}/Q{task.interface_id:02d}/rbfs/euclid_norm": (
            lambda domain=domain, i=i: _bamm(domain).tasks[i],
            "rbfs",
            "euclid_norm",
            None,
        )
        for domain in DOMAIN_NAMES
        for i, task in enumerate(_bamm(domain).tasks)
    }


def _semantic_cases() -> dict:
    cases = {}
    for name, domain in (
        ("Inventory", inventory_domain),
        ("RealEstate", real_estate_domain),
    ):
        for n in (2, 4):
            for algorithm in ("ida", "rbfs"):
                cases[f"fig9/{name}/n={n}/{algorithm}/h1"] = (
                    lambda domain=domain, n=n: domain().task(n),
                    algorithm,
                    "h1",
                    None,
                )
    # EXPERIMENTS.md's Fig. 9 table shows this run cut at 30,000 states;
    # at the default 10^6 budget blind IDA* finds the mapping.
    cases["fig9/Inventory/n=8/ida/h0"] = (
        lambda: inventory_domain().task(8),
        "ida",
        "h0",
        None,
    )
    return cases


#: the non-default pruning configurations, by case-id prefix
PRUNING_CONFIGS = {
    "nosym": SearchConfig(break_symmetry=False),
    "noprune": SearchConfig(prune_targets=False),
    "naive": SearchConfig(prune_targets=False, break_symmetry=False),
}


def _pruning_cases() -> dict:
    """Small tasks under each non-default configuration.

    Unpruned search explodes quickly (Flights B->A under RBFS passes
    200k states), so the unpruned configurations get the smallest tasks.
    """
    cases = {}
    for label, config in PRUNING_CONFIGS.items():
        if label == "nosym":
            synthetic = [(n, "ida", "h0") for n in (2, 3, 4)]
            synthetic += [(n, "rbfs", "h1") for n in (2, 3, 4)]
            flights = [
                (name, build, algorithm, heuristic)
                for name, build in (
                    ("b->a", _flights_b_to_a),
                    ("b->c", _flights_b_to_c),
                )
                for algorithm, heuristic in (
                    ("rbfs", "euclid_norm"),
                    ("ida", "cosine"),
                )
            ]
        else:
            synthetic = [(2, "ida", "h0")]
            synthetic += [(n, "rbfs", "h1") for n in (2, 3, 4)]
            flights = [("b->c", _flights_b_to_c, "rbfs", "euclid_norm")]
        for n, algorithm, heuristic in synthetic:
            cases[f"{label}/fig5/n={n}/{algorithm}/{heuristic}"] = (
                lambda n=n: matching_pair(n),
                algorithm,
                heuristic,
                config,
            )
        for name, build, algorithm, heuristic in flights:
            cases[f"{label}/fig1/{name}/{algorithm}/{heuristic}"] = (
                build,
                algorithm,
                heuristic,
                config,
            )
    return cases


CASES = {
    **_synthetic_cases(),
    **_flights_cases(),
    **_bamm_cases(),
    **_semantic_cases(),
    **_pruning_cases(),
}


def run_case(case_id: str) -> dict:
    """Run one golden case; returns its JSON-ready record."""
    build, algorithm, heuristic, config = CASES[case_id]
    task = build()
    result = discover_mapping(
        task.source,
        task.target,
        algorithm=algorithm,
        heuristic=heuristic,
        correspondences=getattr(task, "correspondences", ()),
        registry=getattr(task, "registry", None),
        config=config,
    )
    return {
        "status": result.status,
        "states_examined": result.stats.states_examined,
        "states_generated": result.stats.states_generated,
        "expression": (
            str(result.expression) if result.expression is not None else None
        ),
    }


def _render(goldens: dict) -> str:
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def goldens(request):
    """The recorded goldens; with ``--update-goldens``, a dict to fill.

    In update mode the fresh records are merged over the recorded ones at
    module teardown (cases no longer in :data:`CASES` are dropped), so a
    ``-k`` subset rewrites only the cases it ran.
    """
    update = request.config.getoption("update_goldens")
    recorded = json.loads(GOLDENS.read_text()) if GOLDENS.exists() else {}
    if not update:
        yield recorded
        return
    fresh: dict = {}
    yield fresh
    merged = {
        case_id: fresh.get(case_id, recorded.get(case_id))
        for case_id in CASES
        if case_id in fresh or case_id in recorded
    }
    GOLDENS.parent.mkdir(parents=True, exist_ok=True)
    GOLDENS.write_text(_render(merged))


@pytest.mark.parametrize("case_id", list(CASES))
def test_golden(case_id, goldens, request):
    observed = run_case(case_id)
    if request.config.getoption("update_goldens"):
        goldens[case_id] = observed
        return
    assert case_id in goldens, (
        f"no golden for {case_id!r}; record it with --update-goldens"
    )
    assert observed == goldens[case_id]


def test_goldens_cover_exactly_the_cases(goldens, request):
    if request.config.getoption("update_goldens"):
        pytest.skip("goldens are being rewritten")
    assert set(goldens) == set(CASES)


def test_goldens_file_is_canonical(goldens, request):
    """The file is exactly what the updater writes: no hand edits."""
    if request.config.getoption("update_goldens"):
        pytest.skip("goldens are being rewritten")
    assert GOLDENS.read_text() == _render(goldens)
