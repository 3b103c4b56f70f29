"""Shared fixtures: the Fig. 1 databases and small helper instances."""

from __future__ import annotations

import pytest

from repro import Database, Relation
from repro.workloads import flights_a, flights_b, flights_c


@pytest.fixture
def db_a() -> Database:
    """FlightsA (routes as columns)."""
    return flights_a()


@pytest.fixture
def db_b() -> Database:
    """FlightsB (fully flat)."""
    return flights_b()


@pytest.fixture
def db_c() -> Database:
    """FlightsC (carriers as relation names)."""
    return flights_c()


@pytest.fixture
def tiny() -> Database:
    """A minimal two-column relation used by operator unit tests."""
    return Database.single(
        Relation("T", ("X", "Y"), [("x1", 1), ("x2", 2)])
    )


@pytest.fixture
def people() -> Database:
    """A small people table with string values."""
    return Database.from_dict(
        {
            "People": [
                {"First": "John", "Last": "Smith", "Age": 40},
                {"First": "Jane", "Last": "Doe", "Age": 35},
            ]
        }
    )


def pytest_addoption(parser) -> None:
    parser.addoption(
        "--update-goldens",
        action="store_true",
        default=False,
        help="rewrite the tests/goldens/*.json files of the modules run "
        "from the current code instead of checking against them",
    )
