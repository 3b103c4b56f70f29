"""Search configuration.

Bundles the knobs of the mapping-discovery search: the state budget, which
operator families the successor generator may propose, whether the
symmetry-breaking canonicalisation of commuting operator runs is active
(the paper's "simple enhancements to search", §2.3), and the capacity of
the memo tables (see :mod:`repro.search.problem`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

#: operator family tags accepted by :attr:`SearchConfig.enabled_operators`
OPERATOR_FAMILIES: tuple[str, ...] = (
    "rename_att",
    "rename_rel",
    "drop",
    "promote",
    "demote",
    "deref",
    "partition",
    "product",
    "merge",
    "apply",
)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for mapping-discovery search.

    Attributes:
        max_states: hard budget on states examined; exceeding it aborts the
            search with a ``budget_exceeded`` result (the paper's plots are
            likewise cut at 10^6 states).
        enabled_operators: operator families the successor generator may
            propose; defaults to every searchable family.  (σ is never
            searched — §2.1 treats selection as post-processing.)
        break_symmetry: canonicalise runs of consecutive commuting operators
            (renames / drops / λ sorted within a run).  This is the main
            "obviously inapplicable transformations are disregarded"
            enhancement; turning it off reproduces the naive search for the
            pruning ablation.
        prune_targets: restrict operator proposals to ones that can supply a
            missing target token (the remaining §2.3 enhancement rules).
        max_depth: optional hard depth cap (None = unbounded).
        cache_capacity: bound (entries, LRU eviction) on the memo tables —
            the node table (one node per state, holding its successor
            entries, goal verdict and heuristic estimate; evicting a node
            drops its memo) and the per-relation proposal table.  ``None``
            means unbounded, trading the algorithms' linear-memory
            guarantee for maximum reuse.  The tables are semantically
            transparent: a bounded search visits exactly the same states in
            the same order.
        deadline_seconds: optional wall-clock deadline for the run.  The
            kernel checks ``perf_counter`` cooperatively (every few
            examinations plus once per successor expansion — see
            ``docs/robustness.md``) and aborts with a ``deadline_exceeded``
            result carrying the partial
            :class:`~repro.search.stats.SearchStats`.  ``None`` (default)
            reproduces the paper's run-to-budget behaviour exactly.
    """

    max_states: int = 1_000_000
    enabled_operators: frozenset[str] = field(
        default_factory=lambda: frozenset(OPERATOR_FAMILIES)
    )
    break_symmetry: bool = True
    prune_targets: bool = True
    max_depth: int | None = None
    cache_capacity: int | None = None
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError(f"max_states must be positive, got {self.max_states}")
        unknown = set(self.enabled_operators) - set(OPERATOR_FAMILIES)
        if unknown:
            raise ValueError(
                f"unknown operator families {sorted(unknown)}; "
                f"allowed: {OPERATOR_FAMILIES}"
            )
        if self.max_depth is not None and self.max_depth < 0:
            raise ValueError(f"max_depth must be non-negative, got {self.max_depth}")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError(
                f"cache_capacity must be positive or None, got {self.cache_capacity}"
            )
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive or None, "
                f"got {self.deadline_seconds}"
            )

    def allows(self, family: str) -> bool:
        """Whether the given operator family may be proposed."""
        return family in self.enabled_operators

    def without_operators(self, *families: str) -> "SearchConfig":
        """A copy with the given operator families disabled."""
        return replace(
            self, enabled_operators=self.enabled_operators - set(families)
        )
