"""Unit tests for MappingProblem: goal test, pruning, symmetry breaking."""

from __future__ import annotations

import pytest

from repro.fira import (
    ApplyFunction,
    CartesianProduct,
    Demote,
    DropAttribute,
    Merge,
    Partition,
    Promote,
    RenameAttribute,
    RenameRelation,
)
from repro.relational import NULL, Database, Relation
from repro.search import MappingProblem, SearchConfig, SearchStats
from repro.semantics import Correspondence
from repro.workloads import matching_pair, total_cost_correspondence


def ops_of(problem, state, last_op=None, kind=None):
    moves = [
        op
        for op, _child in problem.successors(problem.node(state), last_op, SearchStats())
    ]
    if kind is not None:
        moves = [op for op in moves if isinstance(op, kind)]
    return moves


class TestGoal:
    def test_goal_is_containment(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        assert not problem.is_goal(problem.node(db_b), SearchStats())
        assert problem.is_goal(problem.node(db_a), SearchStats())

    def test_goal_tolerates_superset(self, db_a):
        wider = db_a.with_relation(Relation("Extra", ("Z",), [(1,)]))
        problem = MappingProblem(db_a, db_a)
        assert problem.is_goal(problem.node(wider), SearchStats())

    def test_initial_state(self, db_a, db_b):
        assert MappingProblem(db_b, db_a).initial_state() == db_b


class TestRenamePruning:
    def test_renames_target_missing_names_only(self):
        pair = matching_pair(3)
        problem = MappingProblem(pair.source, pair.target)
        renames = ops_of(problem, pair.source, kind=RenameAttribute)
        assert renames  # proposals exist
        assert {op.new for op in renames} <= {"B01", "B02", "B03"}

    def test_no_renames_once_attributes_present(self):
        pair = matching_pair(2)
        problem = MappingProblem(pair.source, pair.target)
        assert ops_of(problem, pair.target, kind=RenameAttribute) == []

    def test_never_renames_away_target_attribute(self):
        source = Database.single(Relation("R", ("B01", "X"), [(1, 2)]))
        target = Database.single(Relation("R", ("B01", "B02"), [(1, 2)]))
        problem = MappingProblem(source, target)
        olds = {op.old for op in ops_of(problem, source, kind=RenameAttribute)}
        assert "B01" not in olds

    def test_symmetry_breaking_orders_runs(self):
        pair = matching_pair(3)
        problem = MappingProblem(pair.source, pair.target)
        last = RenameAttribute("R", "A02", "B02")
        state = last.apply(pair.source)
        olds = {op.old for op in ops_of(problem, state, last, RenameAttribute)}
        assert olds == {"A03"}  # A01 < A02 is pruned by canonical order

    def test_symmetry_breaking_disabled(self):
        pair = matching_pair(3)
        config = SearchConfig(break_symmetry=False)
        problem = MappingProblem(pair.source, pair.target, config=config)
        last = RenameAttribute("R", "A02", "B02")
        state = last.apply(pair.source)
        olds = {op.old for op in ops_of(problem, state, last, RenameAttribute)}
        assert olds == {"A01", "A03"}

    def test_relation_rename_proposed(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        renames = ops_of(problem, db_b, kind=RenameRelation)
        assert RenameRelation("Prices", "Flights") in renames


class TestDynamicPruning:
    def test_promote_only_for_missing_target_attribute_values(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        promotes = ops_of(problem, db_b, kind=Promote)
        assert promotes  # Route values are target attribute names
        assert all(op.name_attr == "Route" for op in promotes)

    def test_no_promote_when_target_flat(self, db_a, db_b):
        problem = MappingProblem(db_a, db_b)  # A -> B: no promote needed
        assert ops_of(problem, db_a, kind=Promote) == []

    def test_partition_only_for_missing_relation_values(self, db_b, db_c):
        problem = MappingProblem(db_b, db_c)
        partitions = ops_of(problem, db_b, kind=Partition)
        assert partitions == [Partition("Prices", "Carrier")]

    def test_demote_when_metadata_needed_as_data(self, db_a, db_b):
        problem = MappingProblem(db_a, db_b)  # A's route columns -> B's data
        demotes = ops_of(problem, db_a, kind=Demote)
        assert demotes == [Demote("Flights")]

    def test_no_demote_when_values_covered(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        assert ops_of(problem, db_b, kind=Demote) == []

    def test_merge_requires_nulls(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        assert ops_of(problem, db_b, kind=Merge) == []
        # after promote + drops the ragged tuples can actually coalesce
        narrowed = (
            Promote("Prices", "Route", "Cost")
            .apply(db_b)
            .relation("Prices")
            .drop_attribute("Route")
            .drop_attribute("Cost")
        )
        state = Database.single(narrowed)
        merges = ops_of(problem, state, kind=Merge)
        assert Merge("Prices", "Carrier") in merges

    def test_effectless_merge_filtered(self, db_a, db_b):
        """Right after promote, merging on Carrier changes nothing (Route
        and Cost still conflict), so the move is dropped as a no-op."""
        problem = MappingProblem(db_b, db_a)
        promoted = Promote("Prices", "Route", "Cost").apply(db_b)
        assert (
            Merge("Prices", "Carrier").apply(promoted) != promoted
            or ops_of(problem, promoted, kind=Merge) == []
        )

    def test_drop_requires_nulls_or_reserved(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        assert ops_of(problem, db_b, kind=DropAttribute) == []
        promoted = Promote("Prices", "Route", "Cost").apply(db_b)
        drops = {op.attribute for op in ops_of(problem, promoted, kind=DropAttribute)}
        assert "Route" in drops and "Cost" in drops
        # never drop names the target carries
        assert "Carrier" not in drops and "ATL29" not in drops

    def test_product_needs_spanning_target(self, db_c):
        target = Database.single(
            Relation("Wide", ("Route", "BaseCost"), [("ATL29", 100)])
        )
        problem = MappingProblem(db_c, target)
        # both operands carry the same attributes: nothing spans
        assert ops_of(problem, db_c, kind=CartesianProduct) == []

    def test_product_proposed_when_spanning(self):
        source = Database(
            [
                Relation("L", ("A",), [(1,)]),
                Relation("R", ("B",), [(2,)]),
            ]
        )
        target = Database.single(Relation("T", ("A", "B"), [(1, 2)]))
        problem = MappingProblem(source, target)
        products = ops_of(problem, source, kind=CartesianProduct)
        assert products == [CartesianProduct("L", "R")]


class TestLambdaProposals:
    def test_lambda_from_correspondence(self, db_b, db_c):
        corr = total_cost_correspondence()
        problem = MappingProblem(db_b, db_c, correspondences=[corr])
        lambdas = ops_of(problem, db_b, kind=ApplyFunction)
        assert lambdas == [
            ApplyFunction("Prices", "add", ("Cost", "AgentFee"), "TotalCost")
        ]

    def test_lambda_not_reproposed_once_applied(self, db_b, db_c):
        corr = total_cost_correspondence()
        problem = MappingProblem(db_b, db_c, correspondences=[corr])
        applied = ApplyFunction.from_correspondence("Prices", corr).apply(
            db_b, problem.registry
        )
        assert ops_of(problem, applied, kind=ApplyFunction) == []

    def test_lambda_respects_relation_scope(self, db_b, db_c):
        corr = Correspondence(
            "add", ("Cost", "AgentFee"), "TotalCost", relation="Other"
        )
        problem = MappingProblem(db_b, db_c, correspondences=[corr])
        assert ops_of(problem, db_b, kind=ApplyFunction) == []

    def test_bad_correspondence_rejected_at_construction(self, db_b, db_c):
        from repro.errors import CorrespondenceError

        bad = Correspondence("add", ("Cost",), "TotalCost")
        with pytest.raises(CorrespondenceError):
            MappingProblem(db_b, db_c, correspondences=[bad])


class TestSuccessorHygiene:
    def test_no_duplicate_children(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        children = [child.state for _op, child in problem.successors(problem.node(db_b), None, SearchStats())]
        assert len(children) == len(set(children))

    def test_no_noop_children(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        root = problem.node(db_b)
        assert all(child.state != db_b for _op, child in problem.successors(root, None, SearchStats()))

    def test_deterministic_order(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        first = [str(op) for op, _ in problem.successors(problem.node(db_b), None, SearchStats())]
        problem.clear_caches()  # the second list is derived afresh
        second = [str(op) for op, _ in problem.successors(problem.node(db_b), None, SearchStats())]
        assert first == second

    def test_stats_generation_counted(self, db_a, db_b):
        problem = MappingProblem(db_b, db_a)
        stats = SearchStats()
        children = problem.successors(problem.node(db_b), None, stats)
        assert stats.states_generated == len(children)
