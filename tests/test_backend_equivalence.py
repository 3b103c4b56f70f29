"""Cross-engine equivalence: the FIRA → SQL compiler's correctness oracle.

sqlite must produce a result **bit-identical** (``==`` on
:class:`~repro.relational.database.Database`) with replaying the mapping
through the in-memory algebra — on the paper's Fig. 1 flights pipelines,
the synthetic matching workloads, BAMM-style rename tasks, and degenerate
inputs (empty relations, NULL-heavy columns, single-row dynamic
pipelines).  A divergence means the compiler, the dialect, or the backend
is lying about the mapping's semantics.
"""

from __future__ import annotations

import pytest

from repro import Database, Relation
from repro.backends import execute_mapping
from repro.fira import (
    ApplyFunction,
    CartesianProduct,
    Demote,
    Dereference,
    DropAttribute,
    MappingExpression,
    Merge,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
    Select,
)
from repro.relational import NULL
from repro.search import discover_mapping
from repro.workloads import flights_b, matching_pair
from repro.workloads.bamm import bamm_domain
from repro.workloads.flights import (
    b_to_a_expression,
    flights_a,
    b_to_c_expression,
    flights_c,
    flights_registry,
    total_cost_correspondence,
)

BACKENDS = ("sqlite",)


def assert_all_backends_match(expression, source, registry=None):
    """The oracle: algebra == sqlite, bit for bit."""
    algebra = expression.apply(source, registry)
    for name in BACKENDS:
        result = execute_mapping(
            expression, source, backend=name, registry=registry
        )
        assert result.database == algebra, (
            f"backend {name} diverged from the in-memory algebra"
        )
    return algebra


class TestFlightsPipelines:
    """Fig. 1: the paper's three-schema flights example."""

    def test_b_to_a(self):
        assert_all_backends_match(
            b_to_a_expression(), flights_b(), flights_registry()
        )

    def test_b_to_c(self):
        assert_all_backends_match(
            b_to_c_expression(), flights_b(), flights_registry()
        )

    def test_ida_b_to_c_partitions_into_its_input_name(self):
        """IDA* renames Prices to AirEast, then partitions AirEast on a
        Carrier column whose values include AirEast: the compiled script
        must move the input aside before creating the partitions."""
        result = discover_mapping(
            flights_b(),
            flights_c(),
            algorithm="ida",
            heuristic="h1",
            correspondences=[total_cost_correspondence()],
            registry=flights_registry(),
        )
        assert result.found
        assert result.states_examined == 501
        assert str(result.expression.operators[-1]) == (
            "partition[AirEast](Carrier)"
        )
        algebra = assert_all_backends_match(
            result.expression, flights_b(), flights_registry()
        )
        assert algebra.contains(flights_c())

    def test_discovered_b_to_a(self):
        """A mapping search finds for Example 2 runs like the algebra."""
        result = discover_mapping(flights_b(), flights_a(), heuristic="cosine")
        assert result.found
        algebra = assert_all_backends_match(result.expression, flights_b())
        assert algebra.contains(flights_a())


class TestSyntheticWorkloads:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_reference_expressions(self, n):
        pair = matching_pair(n)
        assert_all_backends_match(
            pair.reference_expression(), pair.source
        )

    def test_discovered_expression(self):
        """A mapping found by search executes identically everywhere."""
        pair = matching_pair(3)
        result = discover_mapping(pair.source, pair.target, heuristic="h1")
        assert result.found
        algebra = assert_all_backends_match(result.expression, pair.source)
        assert algebra.contains(pair.target)


class TestBammWorkloads:
    def test_gold_rename_tasks(self):
        domain = bamm_domain("Books")
        for task in domain.tasks[:3]:
            relation = task.source.relation_names[0]
            expression = MappingExpression(
                RenameAttribute(relation, old, new)
                for old, new in task.gold_renames
            )
            assert_all_backends_match(expression, task.source)


class TestOperatorFamilies:
    """One instance-directed case per operator family."""

    @pytest.fixture
    def mixed(self):
        return Database.single(
            Relation(
                "T",
                ("K", "V"),
                [("x", 1), ("y", 2.5), ("z", NULL), ("w", "s")],
            )
        )

    def test_promote_merge_drop(self, mixed):
        assert_all_backends_match(
            MappingExpression(
                [
                    Promote("T", "K", "V"),
                    DropAttribute("T", "V"),
                    DropAttribute("T", "K"),
                ]
            ),
            mixed,
        )

    def test_demote(self, mixed):
        assert_all_backends_match(MappingExpression([Demote("T")]), mixed)

    def test_partition(self, mixed):
        assert_all_backends_match(
            MappingExpression([Partition("T", "K")]), mixed
        )

    def test_dereference_keeps_raw_values(self):
        db = Database.single(
            Relation(
                "P",
                ("ptr", "a", "b"),
                [("a", 1, 10), ("b", 2, 2.0), ("a", NULL, 30)],
            )
        )
        assert_all_backends_match(
            MappingExpression([Dereference("P", "ptr", "out")]), db
        )

    def test_product(self):
        db = Database(
            [
                Relation("L", ("x",), [("1",), ("2",)]),
                Relation("R", ("y",), [("u",)]),
            ]
        )
        assert_all_backends_match(
            MappingExpression([CartesianProduct("L", "R", "LR")]), db
        )

    def test_select_and_renames(self, mixed):
        assert_all_backends_match(
            MappingExpression(
                [
                    Select("T", "K", "x"),
                    RenameAttribute("T", "V", "W"),
                    RenameRelation("T", "U"),
                ]
            ),
            mixed,
        )

    def test_lambda_with_a_nan_result_is_null(self):
        """add(inf, -inf) is NaN in float arithmetic; both engines give NULL."""
        from repro import builtin_registry

        inf = float("inf")
        db = Database.single(Relation("R", ("A", "B"), [(inf, -inf), (1, 2)]))
        algebra = assert_all_backends_match(
            MappingExpression([ApplyFunction("R", "add", ("A", "B"), "C")]),
            db,
            registry=builtin_registry(),
        )
        assert algebra.relation("R").rows == {(inf, -inf, NULL), (1, 2, 3)}

    def test_apply_function(self):
        from repro import builtin_registry

        db = Database.single(
            Relation("R", ("Cost", "Fee"), [(100, 15), (150, 25)])
        )
        assert_all_backends_match(
            MappingExpression(
                [ApplyFunction("R", "add", ("Cost", "Fee"), "Total")]
            ),
            db,
            registry=builtin_registry(),
        )


class TestDegenerateInputs:
    """Satellite: empty relations, NULL-heavy columns, single-row dynamics."""

    def test_empty_relation_rename_pipeline(self):
        db = Database.single(Relation("E", ("A", "B"), []))
        assert_all_backends_match(
            MappingExpression(
                [
                    RenameAttribute("E", "A", "C"),
                    DropAttribute("E", "B"),
                    RenameRelation("E", "F"),
                ]
            ),
            db,
        )

    def test_empty_relation_demote(self):
        db = Database.single(Relation("E", ("A",), []))
        assert_all_backends_match(MappingExpression([Demote("E")]), db)

    def test_null_heavy_columns(self):
        db = Database.single(
            Relation(
                "N",
                ("K", "V"),
                [("a", NULL), ("b", NULL), (NULL, NULL), (NULL, 1)],
            )
        )
        assert_all_backends_match(
            MappingExpression([Merge("N", "K")]), db
        )

    def test_mostly_null_promote_names(self):
        """Promote where all but one name cell is NULL."""
        db = Database.single(
            Relation(
                "N", ("K", "V"), [(NULL, 1), (NULL, 2), ("only", 3)]
            )
        )
        assert_all_backends_match(
            MappingExpression([Promote("N", "K", "V")]), db
        )

    def test_single_row_promote_dereference(self):
        db = Database.single(
            Relation("S", ("name", "value"), [("price", 99)])
        )
        assert_all_backends_match(
            MappingExpression(
                [
                    Promote("S", "name", "value"),
                    Dereference("S", "name", "looked_up"),
                ]
            ),
            db,
        )

    def test_select_to_empty(self):
        db = Database.single(Relation("R", ("A",), [("x",), ("y",)]))
        assert_all_backends_match(
            MappingExpression([Select("R", "A", "nothing-matches")]), db
        )

    def test_duplicate_collapse_after_drop(self):
        """The set-semantics honeypot: a drop that creates duplicates."""
        db = Database.single(
            Relation("D", ("A", "B"), [("x", 1), ("x", 2), ("y", 3)])
        )
        assert_all_backends_match(
            MappingExpression([DropAttribute("D", "B")]), db
        )
