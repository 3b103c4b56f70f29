"""Proposal looks each rule up by what it reads, and skips only dead moves.

Under ``prune_targets``, ``MappingProblem._propose`` probes the per-value
promote/dereference view (``("moves", rel)``) and partition view
(``("partition", rel)``) only when some value text of the relation names
what the rule needs, and it proposes a merge only where the merge changes
the relation.  These tests pin both as exact:

* over every relation of every state the paper-golden searches propose
  from, a skipped probe hides no move: the view's build function
  (``_data_moves``, ``_partition_candidates``), called directly, yields
  none;
* no proposed merge returns its input on the Fig. 1 B->A searches;
* a blind Fig. 5 search builds no per-value view at all.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import discover_mapping
from repro.fira import Merge
from repro.relational.relation import _interned_name_set
from repro.search import MappingProblem
from repro.workloads import matching_pair

from .test_goldens import CASES


def _checked_cases() -> list[str]:
    """The golden Fig. 1, Fig. 5 n <= 4, BAMM and Fig. 9 searches."""
    small_fig5 = tuple(f"fig5/n={n}/" for n in (2, 3, 4))
    return [
        case_id
        for case_id in CASES
        if case_id.startswith(("fig1/", "bamm/", "fig9/", *small_fig5))
    ]


def _run(case_id: str):
    build, algorithm, heuristic, config = CASES[case_id]
    task = build()
    return discover_mapping(
        task.source,
        task.target,
        algorithm=algorithm,
        heuristic=heuristic,
        correspondences=getattr(task, "correspondences", ()),
        registry=getattr(task, "registry", None),
        config=config,
        simplify=False,
    )


@pytest.fixture(scope="module")
def skipped_probes():
    """Run every checked case, verifying each skipped per-value probe.

    Returns how many probes the checks skipped, per view.
    """
    skipped: Counter = Counter()
    probed: set = set()
    propose = MappingProblem._propose
    relation_view = MappingProblem._relation_view

    def logging_view(self, key, rel, build):
        probed.add(key)
        return relation_view(self, key, rel, build)

    def checked_propose(self, state, last_op):
        probed.clear()
        moves = propose(self, state, last_op)
        missing = _interned_name_set(
            self._target_rels.difference(state.relation_names)
        )
        for rel in state:
            if ("moves", rel) not in probed:
                assert self._data_moves(rel) == ((), ()), (state, rel)
                skipped["moves"] += 1
            if missing and ("partition", rel) not in probed:
                candidates = self._partition_candidates(rel)
                assert all(missing.isdisjoint(c) for _a, c in candidates), rel
                skipped["partition"] += 1
        return moves

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(MappingProblem, "_relation_view", logging_view)
        patch.setattr(MappingProblem, "_propose", checked_propose)
        for case_id in _checked_cases():
            assert _run(case_id).found, case_id
    return skipped


def test_value_text_checks_skip_only_dead_rules(skipped_probes):
    cases = _checked_cases()
    for prefix in ("fig1/", "fig5/", "bamm/", "fig9/"):
        assert any(case_id.startswith(prefix) for case_id in cases), prefix
    # the checks do skip on these searches, so the fixture's assertions bite
    assert skipped_probes["moves"] > 0
    assert skipped_probes["partition"] > 0


@pytest.mark.parametrize(
    "case_id", [case_id for case_id in CASES if case_id.startswith("fig1/b->a/")]
)
def test_no_proposed_merge_returns_its_input(case_id, monkeypatch):
    applied: list[bool] = []
    apply = Merge.apply

    def recording_apply(self, db, registry=None):
        out = apply(self, db, registry)
        applied.append(out != db)
        return out

    monkeypatch.setattr(Merge, "apply", recording_apply)
    assert _run(case_id).found
    assert applied, "the Fig. 1 B->A search proposes merges"
    assert all(applied)


def test_blind_synthetic_search_builds_no_per_value_view(monkeypatch):
    builds: Counter = Counter()
    for name in ("_data_moves", "_partition_candidates"):
        build = getattr(MappingProblem, name)

        def counting(self, rel, build=build, name=name):
            builds[name] += 1
            return build(self, rel)

        monkeypatch.setattr(MappingProblem, name, counting)
    pair = matching_pair(4)
    result = discover_mapping(pair.source, pair.target, algorithm="ida", heuristic="h0")
    assert result.found
    assert result.stats.states_examined > 100
    assert builds == Counter()
