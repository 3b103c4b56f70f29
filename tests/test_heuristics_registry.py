"""Unit tests for the heuristic registry and scaling constants (§5 table)."""

from __future__ import annotations

import pytest

from repro.errors import UnknownHeuristicError
from repro.heuristics import (
    EXTENSION_HEURISTIC_NAMES,
    HEURISTIC_CLASSES,
    HEURISTIC_NAMES,
    PAPER_SCALING_CONSTANTS,
    default_k,
    heuristic_factory,
    make_heuristic,
)


class TestRegistry:
    def test_all_eight_heuristics(self):
        assert len(HEURISTIC_NAMES) == 8
        assert set(HEURISTIC_NAMES) == {
            "h0",
            "h1",
            "h2",
            "h3",
            "euclid",
            "euclid_norm",
            "cosine",
            "levenshtein",
        }

    @pytest.mark.parametrize("name", HEURISTIC_NAMES)
    def test_make_each(self, name, db_a):
        h = make_heuristic(name, db_a)
        assert h.name == name
        assert h(db_a) == 0

    def test_classes_cover_every_name_under_its_own_name(self):
        assert set(HEURISTIC_CLASSES) == set(
            HEURISTIC_NAMES + EXTENSION_HEURISTIC_NAMES
        )
        for name, cls in HEURISTIC_CLASSES.items():
            assert cls.name == name

    def test_unknown_name(self, db_a):
        with pytest.raises(UnknownHeuristicError) as err:
            make_heuristic("nope", db_a)
        assert "h1" in err.value.available

    def test_factory_defers_target(self, db_a):
        factory = heuristic_factory("cosine", k=9)
        h = factory(db_a)
        assert h.name == "cosine"
        assert h.k == 9


class TestScalingConstants:
    def test_paper_table(self):
        assert PAPER_SCALING_CONSTANTS["ida"] == {
            "euclid_norm": 7,
            "cosine": 5,
            "levenshtein": 11,
        }
        assert PAPER_SCALING_CONSTANTS["rbfs"] == {
            "euclid_norm": 20,
            "cosine": 24,
            "levenshtein": 15,
        }

    def test_default_k_lookup(self):
        assert default_k("cosine", "ida") == 5
        assert default_k("cosine", "rbfs") == 24
        assert default_k("cosine", None) is None
        assert default_k("h1", "ida") is None

    def test_algorithm_selects_k(self, db_a):
        ida = make_heuristic("levenshtein", db_a, algorithm="ida")
        rbfs = make_heuristic("levenshtein", db_a, algorithm="rbfs")
        assert ida.k == 11
        assert rbfs.k == 15

    def test_explicit_k_overrides(self, db_a):
        h = make_heuristic("cosine", db_a, k=3, algorithm="rbfs")
        assert h.k == 3

    def test_unscaled_ignores_k(self, db_a):
        h = make_heuristic("h1", db_a, k=99)
        assert not hasattr(h, "k")
