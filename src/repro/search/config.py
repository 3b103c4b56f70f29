"""Search configuration.

Bundles the settings a mapping-discovery workload varies: the state
budget, the paper's two "simple enhancements to search" (§2.3), target
pruning and the symmetry-breaking canonicalisation of commuting operator
runs, and a wall-clock deadline.  Search always proposes every operator
of L but σ, which §2.1 treats as post-processing, and λ only for declared
correspondences.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SearchConfig:
    """Settings for mapping-discovery search.

    Attributes:
        max_states: hard budget on states examined; exceeding it aborts the
            search with a ``budget_exceeded`` result (the paper's plots are
            likewise cut at 10^6 states).
        break_symmetry: canonicalise runs of consecutive commuting operators
            (attribute renames, relation renames and drops sorted within a
            run; λ applications are not).  This is the main
            "obviously inapplicable transformations are disregarded"
            enhancement; turning it off reproduces the naive search for the
            pruning ablation.
        prune_targets: restrict operator proposals to ones that can supply a
            missing target token (the remaining §2.3 enhancement rules).
        deadline_seconds: optional wall-clock deadline for the run.  The
            kernel checks ``perf_counter`` cooperatively (every few
            examinations plus once per successor expansion — see
            ``docs/robustness.md``) and aborts with a ``deadline_exceeded``
            result carrying the partial
            :class:`~repro.search.stats.SearchStats`.  ``None`` (default)
            reproduces the paper's run-to-budget behaviour exactly.
    """

    max_states: int = 1_000_000
    break_symmetry: bool = True
    prune_targets: bool = True
    deadline_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.max_states < 1:
            raise ValueError(f"max_states must be positive, got {self.max_states}")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be positive or None, "
                f"got {self.deadline_seconds}"
            )
