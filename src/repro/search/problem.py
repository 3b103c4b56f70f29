"""The mapping-discovery search problem (§2.3).

Given source and target critical instances, :class:`MappingProblem` defines
the state space TUPELO explores: states are whole databases, the initial
state is the source instance, moves are instances of the L operators, and
the goal test is "the state contains the target instance" (structurally
identical superset).

Successor generation implements the paper's "simple enhancements to search":
*obviously inapplicable transformations are disregarded* —

* an operator is proposed only if it can supply a missing target token
  (e.g. attribute renames are skipped once every target attribute name is
  present, promotes are proposed only for columns whose values include a
  missing target attribute name, ...);
* runs of consecutive commuting operators (attribute renames, drops,
  relation renames) are canonicalised to sorted order, so the search does
  not explore the factorially many equivalent orderings.

``SearchConfig(prune_targets=, break_symmetry=)`` turns either off, so the
pruning ablation can measure its impact.  Search proposes every operator
of L but σ (§2.1 treats selection as post-processing), and λ only for
declared correspondences.

**One node per state.**  IDA* and RBFS accept "redundant explorations" as
the price of linear memory (§2.3): the same state is re-examined on every
deepening iteration / backtrack.  Because states are immutable and hashable,
re-deriving anything about a state each time is pure waste, so
:class:`MappingProblem` interns every state it meets in one node table,
which holds exactly one :class:`SearchNode` per state for the problem's
life.  A node holds the state, its heuristic estimate, its goal verdict
and its successor entries, so a repeat visit reads them off the node
without a table lookup, and the algorithms track nodes by identity instead
of hashing states.  Successor entries are keyed by the *canonical symmetry
key* of ``last_op`` (the part of the producing operator the
symmetry-breaking rules actually consult), so memoised results are exact.
Hit / miss counts and per-phase timings land in
:class:`~repro.search.stats.SearchStats`.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from time import perf_counter
from typing import TYPE_CHECKING, Iterable, Sequence

from ..fira.base import Operator
from ..fira.combine import CartesianProduct, Merge, mergeable_positions
from ..fira.dynamic import (
    DEMOTE_ATT_ATTR,
    DEMOTE_REL_ATTR,
    Demote,
    Dereference,
    Partition,
    Promote,
)
from ..fira.renames import RenameAttribute, RenameRelation
from ..fira.structure import DropAttribute
from ..errors import (
    NameCollisionError,
    OperatorApplicationError,
    SchemaError,
    SearchError,
)
from ..obs.events import CACHE_HIT, CACHE_MISS, GENERATE, GOAL_TEST
from ..relational.database import Database
from ..relational.intern import intern_value
from ..relational.relation import Relation, _interned_name_set
from ..semantics.functions import FunctionRegistry, builtin_registry
from .config import SearchConfig
from .stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..heuristics.base import Heuristic
    from ..semantics.correspondence import Correspondence

_RESERVED_ATTRS = (DEMOTE_REL_ATTR, DEMOTE_ATT_ATTR)

#: demote candidates of a relation whose schema names no target value
_NO_CANDIDATES: frozenset[int] = frozenset()

#: deterministic successor order: family order, then textual form
_SORT_KEY = attrgetter("sort_key")

#: the symmetry key of a node that holds no successor entries yet
_NO_KEY = object()

Entries = tuple[tuple[Operator, "SearchNode"], ...]


class SearchNode:
    """One interned search state and what the search memoises about it.

    ``h`` is the bound heuristic's estimate and ``goal`` the goal verdict,
    ``None`` until first asked.  ``entries`` are the successor entries for
    the symmetry key ``key``; the entries for any further key of the same
    state live in the ``more`` dict, created only when needed.  A problem
    holds one node per state, so algorithms compare nodes by identity.
    """

    __slots__ = ("state", "h", "goal", "key", "entries", "more")

    def __init__(self, state: Database) -> None:
        self.state = state
        self.h: int | None = None
        self.goal: bool | None = None
        self.key: object = _NO_KEY
        self.entries: Entries | None = None
        self.more: dict[object, Entries] | None = None


# Flyweight constructors for the operators proposed in per-attribute loops.
# Operators are frozen values over a small schema vocabulary (relation and
# attribute names of one problem), so proposal can reuse one instance per
# argument triple instead of re-running a dataclass __init__ once per
# expansion.  Unbounded caches are safe: the key space is the cross product
# of schema names, which is tiny and process-stable.
@lru_cache(maxsize=None)
def _rename_attribute_op(relation: str, old: str, new: str) -> RenameAttribute:
    return RenameAttribute(relation, old, new)


@lru_cache(maxsize=None)
def _rename_group(
    relation: str, old: str, news: tuple[str, ...]
) -> tuple[str, tuple[RenameAttribute, ...]]:
    """``(old, renames of old to each of news)``, shared by every schema
    bundle that proposes the same group."""
    return (old, tuple([_rename_attribute_op(relation, old, new) for new in news]))


@lru_cache(maxsize=None)
def _sorted_names(names: frozenset[str]) -> tuple[str, ...]:
    """Deterministic ordering of a schema-vocabulary name set, memoised.

    The proposal rules enumerate "wanted" attribute/relation sets in sorted
    order; the same small sets recur across thousands of expansions.
    """
    return tuple(sorted(names))


@lru_cache(maxsize=None)
def _dereference_op(relation: str, pointer: str, new: str) -> Dereference:
    return Dereference(relation, pointer, new)


@lru_cache(maxsize=None)
def _promote_op(relation: str, name_attr: str, value_attr: str) -> Promote:
    return Promote(relation, name_attr, value_attr)


@lru_cache(maxsize=None)
def _symmetry_key_of(*parts: str) -> tuple[str, ...]:
    """One shared key object per ``(kind, relation, name)``.

    Nodes match a query's key to their stored one by identity, so no key
    tuple is built per expansion.  The key space is the problem's schema
    vocabulary.
    """
    return parts


class MappingProblem:
    """The search problem for one source/target critical-instance pair.

    Args:
        source: source critical instance (initial state).
        target: target critical instance (goal pattern).
        correspondences: declared complex semantic correspondences (§4);
            each may be applied as a λ operator during search.
        registry: function registry resolving λ symbols; defaults to the
            built-ins.
        config: search settings (budget, pruning, deadline).
    """

    def __init__(
        self,
        source: Database,
        target: Database,
        correspondences: Sequence[Correspondence] = (),
        registry: FunctionRegistry | None = None,
        config: SearchConfig | None = None,
    ) -> None:
        self.source = source
        self.target = target
        self.correspondences = tuple(correspondences)
        self.registry = registry if registry is not None else builtin_registry()
        self.config = config if config is not None else SearchConfig()
        for corr in self.correspondences:
            corr.check_signature(self.registry)

        # Target views consulted by the pruning rules.
        self._target_rels = frozenset(target.relation_names)
        self._target_atts = frozenset(target.attribute_names())
        self._target_attrs_by_rel = {
            rel.name: rel.attribute_set for rel in target
        }
        self._target_value_text_ids = target.value_text_ids()
        self._target_att_ids = _interned_name_set(self._target_atts)
        self._target_rel_ids = frozenset(
            intern_value(name) for name in self._target_rels
        )

        # The node table: one node per state value (first-seen wins) for the
        # problem's life, each holding that state's estimate, goal verdict
        # and successor entries.
        self._nodes: dict[Database, SearchNode] = {}
        #: the heuristic whose estimates the nodes memoise (see start())
        self._heuristic: Heuristic | None = None
        # Per-relation proposal table, keyed by what each rule reads: one
        # schema bundle per (name, attributes, has_nulls), and per-value
        # promote/dereference and partition views.  None of them depends
        # on the rest of the state, and operators pass untouched relations
        # through by reference, so consecutive states share almost all
        # entries.
        self._relation_move_cache: dict[tuple, object] = {}
        if self.correspondences:
            # λ support loads only for a problem that can propose a λ.
            from ..fira.semantic import ApplyFunction

            self._apply_function = ApplyFunction

    def __getstate__(self) -> dict:
        """Pickle the problem without its memo tables.

        The node table can hold every state the search touched — megabytes
        of memoised views that would all ship on a process boundary.  It is
        a pure cache and rebuilds lazily, so a pickled problem carries only
        its definition (and no bound heuristic).  (The registry must itself
        be picklable; the parallel layer sidesteps that by shipping
        registry *provider names* instead — see
        :mod:`repro.parallel.providers`.)
        """
        state = dict(self.__dict__)
        state["_nodes"] = {}
        state["_relation_move_cache"] = {}
        state["_heuristic"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    # -- problem interface -----------------------------------------------------

    def initial_state(self) -> Database:
        """The initial search state (the source critical instance)."""
        return self.source

    def start(self, heuristic: "Heuristic") -> SearchNode:
        """Bind *heuristic* to the node table and return the root node.

        Nodes memoise the estimates of one heuristic, so every search on
        this problem must run with the same heuristic object until
        :meth:`clear_caches`; a different one raises
        :class:`~repro.errors.SearchError`.
        """
        bound = self._heuristic
        if bound is None:
            self._heuristic = heuristic
        elif bound is not heuristic:
            raise SearchError(
                f"this problem's nodes memoise the estimates of {bound!r}; "
                f"clear_caches() before searching it with {heuristic!r}"
            )
        return self.node(self.source)

    def clear_caches(self) -> None:
        """Drop the node table (every node's memo) and the proposal table.

        A node still held outside the table keeps no memo either.
        """
        for node in self._nodes.values():
            node.h = node.goal = node.entries = node.more = None
            node.key = _NO_KEY
        self._nodes.clear()
        self._relation_move_cache.clear()
        self._heuristic = None

    def node(self, state: Database) -> SearchNode:
        """The interned node of *state* (first-seen equal value wins).

        Search re-derives equal databases along many paths; one node per
        value means every memo (estimate, goal verdict, successor entries,
        and the database's own views) is computed once per *value* instead
        of once per derivation.  Semantically free: databases are immutable
        and compare by value.
        """
        node = self._nodes.get(state)
        if node is None:
            node = self._nodes[state] = SearchNode(state)
        return node

    def _relation_view(self, key: tuple, rel: Relation, build) -> object:
        """Memoise a per-relation proposal view.

        *key* is chosen by the caller: the schema bundle keys on
        ``(name, attributes, has_nulls)``, so it is shared across states
        whose relations differ only in data; the data-dependent views key
        on ``("moves", rel)`` and ``("partition", rel)``.
        """
        cache = self._relation_move_cache
        value = cache.get(key)
        if value is None:
            value = cache[key] = build(rel)
        return value

    def estimate(self, node: SearchNode, stats: SearchStats) -> int:
        """The bound heuristic's estimate for *node* (memoised on the node).

        Hits and misses are counted on *stats*; only computed estimates
        are timed (a hit is a slot read).
        """
        h = node.h
        if h is not None:
            stats.heuristic_cache_hits += 1
            if stats.tracer.enabled:
                stats.tracer.emit(CACHE_HIT, cache="heuristic")
            return h
        heuristic = self._heuristic
        if heuristic is None:
            raise SearchError("no heuristic bound: call start(heuristic) first")
        begin = perf_counter()
        h = node.h = heuristic(node.state)
        stats.heuristic_cache_misses += 1
        stats.time_in_heuristic += perf_counter() - begin
        if stats.tracer.enabled:
            stats.tracer.emit(CACHE_MISS, cache="heuristic", value=h)
        return h

    def is_goal(self, node: SearchNode, stats: SearchStats) -> bool:
        """Goal test: *node*'s state contains the target critical instance.

        Verdicts are memoised on the node; time spent (hits included) and
        hit/miss counts are recorded on *stats*.
        """
        begin = perf_counter()
        verdict = node.goal
        cached = verdict is not None
        if not cached:
            verdict = node.goal = node.state.contains(self.target)
        if cached:
            stats.goal_cache_hits += 1
        else:
            stats.goal_cache_misses += 1
        tracer = stats.tracer
        if tracer.enabled:
            tracer.emit(CACHE_HIT if cached else CACHE_MISS, cache="goal")
            tracer.emit(GOAL_TEST, verdict=verdict, cached=cached)
        stats.time_in_goal_tests += perf_counter() - begin
        return verdict

    def successors(
        self,
        node: SearchNode,
        last_op: Operator | None,
        stats: SearchStats,
    ) -> Entries:
        """Applicable, pruned, deduplicated moves from *node*'s state.

        Returns ``(operator, child node)`` entries.  *last_op* is the
        operator that produced the state (None at the root); it drives the
        symmetry-breaking canonicalisation of commuting runs.  Results are
        deterministic: sorted by family order then textual form.

        The entries are memoised on the node under the symmetry key of
        *last_op*, and a hit returns the memoised tuple itself: it skips
        proposal and operator application entirely.
        ``stats.states_generated`` counts successors *delivered*, so a hit
        counts like a fresh generation.

        Limit checks: each call polls the run's cancel token and deadline
        through :meth:`~repro.search.stats.SearchStats.check_limits`, so one
        check per expansion keeps every algorithm (including beam's
        layer-wide bursts) responsive.
        """
        stats.check_limits()
        begin = perf_counter()
        tracer = stats.tracer
        try:
            key = self._symmetry_key(last_op)
            if node.key is key:
                entries = node.entries
            else:
                more = node.more
                entries = more.get(key) if more is not None else None
            if entries is not None:
                stats.successor_cache_hits += 1
                stats.generated(len(entries))
                if tracer.enabled:
                    tracer.emit(CACHE_HIT, cache="successor")
                    self._emit_generate(tracer, entries, cached=True)
                return entries
            entries = self._compute_successors(node, last_op)
            if node.entries is None:
                node.key = key
                node.entries = entries
            else:
                if node.more is None:
                    node.more = {}
                node.more[key] = entries
            stats.successor_cache_misses += 1
            stats.generated(len(entries))
            if tracer.enabled:
                tracer.emit(CACHE_MISS, cache="successor")
                self._emit_generate(tracer, entries, cached=False)
            return entries
        finally:
            stats.time_in_successors += perf_counter() - begin

    @staticmethod
    def _emit_generate(tracer, successors: Entries, cached: bool) -> None:
        """Emit one ``generate`` event with per-operator-family counts."""
        ops: dict[str, int] = {}
        for op, _child in successors:
            ops[op.keyword] = ops.get(op.keyword, 0) + 1
        tracer.emit(GENERATE, count=len(successors), cached=cached, ops=ops)

    def _symmetry_key(self, last_op: Operator | None) -> object:
        """The part of *last_op* the proposal rules actually consult.

        Successor sets depend on the producing operator only through the
        symmetry floors of attribute renames and drops (read in
        ``_propose``) and of relation renames (``_propose_relation_renames``)
        — all other operator classes (and ``break_symmetry=False``) make
        the successor set independent of ``last_op``, so they share one
        canonical key.  Keys are shared objects (:func:`_symmetry_key_of`).
        """
        if last_op is None or not self.config.break_symmetry:
            return None
        if isinstance(last_op, RenameAttribute):
            return _symmetry_key_of("rename_att", last_op.relation, last_op.old)
        if isinstance(last_op, RenameRelation):
            return _symmetry_key_of("rename_rel", last_op.old)
        if isinstance(last_op, DropAttribute):
            return _symmetry_key_of("drop", last_op.relation, last_op.attribute)
        return None

    def _compute_successors(
        self, parent: SearchNode, last_op: Operator | None
    ) -> Entries:
        """Uncached successor generation (propose, apply, deduplicate).

        Each child is interned first, so deduplication compares nodes by
        identity and only the node table hashes its state.
        """
        state = parent.state
        moves = self._propose(state, last_op)
        moves.sort(key=_SORT_KEY)
        out: list[tuple[Operator, SearchNode]] = []
        seen: set[SearchNode] = {parent}
        registry = self.registry
        intern = self.node
        for op in moves:
            try:
                child = op.apply(state, registry)
            except (OperatorApplicationError, SchemaError, NameCollisionError):
                continue
            node = intern(child)
            if node in seen:
                continue  # no-op or duplicate of an earlier move
            seen.add(node)
            out.append((op, node))
        return tuple(out)

    # -- proposal rules -----------------------------------------------------------

    def _propose(self, state: Database, last_op: Operator | None) -> list[Operator]:
        """All applicable moves from *state* (order-free; callers sort).

        Each rule is looked up by what it reads.  One schema bundle per
        relation (:meth:`_schema_bundle`) holds the attribute-rename
        groups, drop entries, merge candidates and demote candidates; the
        rename and drop symmetry floors are the only part of *last_op* they
        consult.  Promote, dereference and partition read column contents:
        under ``prune_targets`` their per-value views are probed only when
        some value text of the relation names what the rule needs.  A merge
        is proposed only where it changes the relation.
        """
        config = self.config
        prune = config.prune_targets
        moves: list[Operator] = []
        missing_rels = self._target_rels.difference(state.relation_names)

        if missing_rels or not prune:
            moves.extend(self._propose_relation_renames(state, missing_rels, last_op))
        if self.correspondences:
            moves.extend(self._propose_lambdas(state, last_op))

        # the symmetry floors come from a last attribute rename or drop
        renamed = dropped = None
        if config.break_symmetry:
            if isinstance(last_op, RenameAttribute):
                renamed = last_op
            elif isinstance(last_op, DropAttribute):
                dropped = last_op
        demote_missing: frozenset | None = None  # built on first use
        target_att_ids = self._target_att_ids
        view = self._relation_view
        schema_build = self._schema_bundle
        data_build = self._data_moves
        for rel in state:
            name = rel.name
            renames, drops, merges, demote, attribute_ids = view(
                (name, rel.attributes, rel.has_nulls), rel, schema_build
            )
            if renames:
                if renamed is None or renamed.relation != name:
                    for _old, group in renames:
                        moves.extend(group)
                else:
                    for old, group in renames:
                        if old > renamed.old:  # canonical order within a run
                            moves.extend(group)
            if drops:
                if dropped is None or dropped.relation != name:
                    moves.extend(op for _attr, op in drops)
                else:
                    floor = dropped.attribute
                    moves.extend(op for attr, op in drops if attr > floor)
            if merges:
                mergeable = mergeable_positions(rel)
                if mergeable:
                    moves.extend(op for pos, op in merges if pos in mergeable)
            if demote is None:
                moves.append(Demote(name))
            elif demote:
                if demote_missing is None:
                    demote_missing = (
                        self._target_value_text_ids - state.value_text_ids()
                    )
                if not demote_missing.isdisjoint(demote):
                    moves.append(Demote(name))
            # under pruning, promote needs a value naming a target
            # attribute and dereference one naming an attribute of rel
            if not (
                prune
                and target_att_ids.isdisjoint(texts := rel.value_text_ids())
                and attribute_ids.isdisjoint(texts)
            ):
                promote, deref = view(("moves", rel), rel, data_build)
                moves.extend(promote)
                moves.extend(deref)

        if missing_rels or not prune:
            moves.extend(self._propose_partitions(state, missing_rels))
        if len(state) > 1:
            moves.extend(self._propose_products(state))
        return moves

    def _schema_bundle(
        self, rel: Relation
    ) -> tuple[tuple, tuple, tuple, frozenset | None, frozenset[int]]:
        """``(rename groups, drop entries, merge candidates, demote
        candidates, attribute-name ids)``.

        None of the five reads column contents: each depends on the
        relation name, its attributes and the has-nulls bit, so one bundle
        serves every state whose relation differs only in data.  Demote
        candidates: ``None`` = always fires (unpruned), empty = never.
        """
        demote = (
            self._demote_candidates(rel) if self.config.prune_targets else None
        )
        return (
            self._attribute_rename_groups(rel),
            self._drop_entries(rel),
            self._merge_candidates(rel),
            demote,
            _interned_name_set(rel.attributes),
        )

    def _data_moves(self, rel: Relation) -> tuple[tuple, tuple]:
        """Promote and dereference moves: the data-dependent bundle.

        Both families test column *contents* against target token sets, so
        their probe keys on the relation value.  (Partitions stay separate:
        they are gated on missing target relations, and folding them in
        would charge their candidate computation to states the original
        rule never touched.)
        """
        return (self._promote_moves(rel), self._deref_moves(rel))

    def _propose_partitions(
        self, state: Database, missing_rels: frozenset[str]
    ) -> list[Operator]:
        moves: list[Operator] = []
        if not self.config.prune_targets:
            for rel in state:
                for attr in rel.attributes:
                    moves.append(Partition(rel.name, attr))
            return moves
        # Candidate tokens per column are relation-local; only the
        # "is the candidate still missing" test depends on the state.
        missing = _interned_name_set(missing_rels)
        view = self._relation_view
        build = self._partition_candidates
        for rel in state:
            if missing.isdisjoint(rel.value_text_ids()):
                continue  # no value names a missing target relation
            for attr, cand in view(("partition", rel), rel, build):
                if not missing.isdisjoint(cand):
                    moves.append(Partition(rel.name, attr))
        return moves

    def _missing_atts_for(self, rel: Relation) -> frozenset[str]:
        """Target attributes the relation still lacks.

        If the target has a relation of the same name, aim for its
        attributes; otherwise aim for the union of target attributes.
        """
        wanted = self._target_attrs_by_rel.get(rel.name, self._target_atts)
        return wanted.difference(rel.attributes)

    def _attribute_rename_groups(
        self, rel: Relation
    ) -> tuple[tuple[str, tuple[Operator, ...]], ...]:
        prune = self.config.prune_targets
        if prune:
            wanted = self._missing_atts_for(rel)
        else:
            wanted = self._target_atts.difference(rel.attributes)
        if not wanted:
            return ()
        ordered = _sorted_names(wanted)
        target_atts = self._target_atts
        name = rel.name
        return tuple(
            _rename_group(name, old, ordered)
            for old in rel.attributes
            # never rename away a name the target uses
            if not (prune and old in target_atts)
        )

    def _propose_relation_renames(
        self,
        state: Database,
        missing_rels: frozenset[str],
        last_op: Operator | None,
    ) -> list[Operator]:
        ordered = _sorted_names(missing_rels)
        prune = self.config.prune_targets
        follows_rename = self.config.break_symmetry and isinstance(
            last_op, RenameRelation
        )
        moves: list[Operator] = []
        for rel in state:
            if prune and rel.name in self._target_rels:
                continue
            if follows_rename and rel.name <= last_op.old:
                continue
            for new in ordered:
                moves.append(RenameRelation(rel.name, new))
        return moves

    def _propose_lambdas(
        self, state: Database, last_op: Operator | None
    ) -> Iterable[Operator]:
        for corr in self.correspondences:
            for rel in state:
                if corr.relation is not None and corr.relation != rel.name:
                    continue
                if rel.has_attribute(corr.output):
                    continue
                if not all(rel.has_attribute(a) for a in corr.inputs):
                    continue
                # λ applications are deliberately NOT symmetry-broken: the
                # paper treats them "just like any of the other operators"
                # (§4) and its Fig. 9 blind-search curves show the orderings
                # being explored.
                yield self._apply_function.from_correspondence(rel.name, corr)

    def _promote_moves(self, rel: Relation) -> tuple[Operator, ...]:
        # The per-column "can this supply a missing token" tests are the
        # hottest comparisons in proposal; they run over interned text ids
        # (integer set intersections), and equal strings share one token.
        make = _promote_op
        name = rel.name
        attrs = rel.attributes
        if not self.config.prune_targets:
            return tuple(make(name, n, v) for n in attrs for v in attrs)
        wanted = self._missing_atts_for(rel)
        if not wanted:
            return ()
        wanted_ids = _interned_name_set(wanted)
        target_value_ids = self._target_value_text_ids
        cols = rel.column_text_id_sets()
        # the value-side test is independent of the name attribute, so
        # hoist it out of the nested loop (same pairs, same order)
        value_attrs = [
            attr
            for attr, col in zip(attrs, cols)
            if not target_value_ids.isdisjoint(col)
        ]
        moves: list[Operator] = []
        for name_attr, col in zip(attrs, cols):
            if wanted_ids.isdisjoint(col):
                continue
            for value_attr in value_attrs:
                moves.append(make(name, name_attr, value_attr))
        return tuple(moves)

    def _partition_candidates(
        self, rel: Relation
    ) -> tuple[tuple[str, frozenset], ...]:
        """``(attr, candidate tokens)`` pairs: column values that name some
        target relation.  A Partition fires for a state exactly when one of
        the candidates is still missing from that state — the original
        ``column & missing`` test factors as ``(column & target) & missing``
        because missing relations are always a subset of target relations.
        """
        target = self._target_rel_ids
        return tuple(
            (attr, cand)
            for attr, col in zip(rel.attributes, rel.column_text_id_sets())
            if (cand := col & target)
        )

    def _merge_candidates(self, rel: Relation) -> tuple[tuple[int, Operator], ...]:
        """``(position, Merge)`` pairs; ``_propose`` keeps the positions in
        :func:`~repro.fira.combine.mergeable_positions`.  A relation
        without NULLs has none, so its candidates are empty."""
        if not rel.has_nulls:
            return ()
        prune = self.config.prune_targets
        target_atts = self._target_atts
        return tuple(
            (pos, Merge(rel.name, attr))
            for pos, attr in enumerate(rel.attributes)
            if not prune or attr in target_atts
        )

    def _drop_entries(
        self, rel: Relation
    ) -> tuple[tuple[str, Operator], ...]:
        if rel.arity <= 1:
            return ()
        droppable = rel.has_nulls or any(
            rel.has_attribute(reserved) for reserved in _RESERVED_ATTRS
        )
        if self.config.prune_targets and not droppable:
            return ()
        target_atts = self._target_atts
        name = rel.name
        return tuple(
            (attr, DropAttribute(name, attr))
            for attr in rel.attributes
            if attr not in target_atts  # never drop a name the target needs
        )

    def _deref_moves(self, rel: Relation) -> tuple[Operator, ...]:
        prune = self.config.prune_targets
        wanted = self._missing_atts_for(rel) if prune else (
            self._target_atts.difference(rel.attributes)
        )
        if not wanted:
            return ()
        ordered = _sorted_names(wanted)
        attr_ids = rel.attribute_ids()
        make = _dereference_op
        name = rel.name
        moves: list[Operator] = []
        for pointer, col in zip(rel.attributes, rel.column_text_id_sets()):
            if prune and attr_ids.isdisjoint(col):
                continue  # pointer values never name an attribute
            for new in ordered:
                moves.append(make(name, pointer, new))
        return tuple(moves)

    def _demote_candidates(self, rel: Relation) -> frozenset:
        # Schema names that appear among the target's values are
        # relation-local; whether one is still *missing* is the only
        # state-dependent part of the demote test (missing values are a
        # subset of target values, so intersecting these candidates with
        # the missing set matches the original schema-names & missing
        # test).  The bundle memoises the result, so the relation keeps no
        # schema-name view of its own.
        names = _interned_name_set(rel.attributes) | {intern_value(rel.name)}
        return names & self._target_value_text_ids or _NO_CANDIDATES

    def _propose_products(self, state: Database) -> Iterable[Operator]:
        relations = list(state)
        for i, left in enumerate(relations):
            for right in relations[i + 1 :]:
                if self.config.prune_targets and not self._product_helps(left, right):
                    continue
                yield CartesianProduct(left.name, right.name)

    def _product_helps(self, left: Relation, right: Relation) -> bool:
        """A product is proposed only if some target relation genuinely
        spans both operands: each side must contribute a target attribute
        the other side lacks."""
        for attrs in self._target_attrs_by_rel.values():
            left_only = (attrs & left.attribute_set) - right.attribute_set
            right_only = (attrs & right.attribute_set) - left.attribute_set
            if left_only and right_only:
                return True
        return False
