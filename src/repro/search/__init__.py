"""Data mapping as search: problem definition, IDA*/RBFS, facade (§2.3)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".beam": ("DEFAULT_BEAM_WIDTH", "beam_search", "make_beam"),
        ".best_first": ("a_star", "greedy"),
        ".cancel": ("CancelToken",),
        ".config": ("SearchConfig",),
        ".engine": (
            "ALGORITHM_NAMES", "ALGORITHMS", "Tupelo", "discover_mapping",
        ),
        ".ida": ("ida_star",),
        ".problem": ("MappingProblem", "SearchNode"),
        ".recursive_best_first": ("rbfs",),
        ".result": (
            "STATUS_BUDGET_EXCEEDED", "STATUS_CANCELLED",
            "STATUS_DEADLINE_EXCEEDED", "STATUS_FOUND", "STATUS_NAMES",
            "STATUS_NOT_FOUND", "SearchResult",
        ),
        ".simplify": ("simplify_expression",),
        ".stats": ("LIMIT_CHECK_EVERY", "SearchStats"),
    },
)
