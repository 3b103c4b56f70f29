"""Search heuristics (§3 of the paper): h0–h3, Levenshtein, term-vector."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".base": ("Heuristic", "ScaledHeuristic", "round_half_up"),
        ".hybrid": ("HybridHeuristic",),
        ".registry": (
            "EXTENSION_HEURISTIC_NAMES", "HEURISTIC_CLASSES",
            "HEURISTIC_NAMES", "PAPER_SCALING_CONSTANTS", "default_k",
            "heuristic_factory", "make_heuristic",
        ),
        ".setbased": (
            "BlindHeuristic", "CrossLevelHeuristic", "MaxSetHeuristic",
            "MissingTokensHeuristic",
        ),
        ".stringview": ("LevenshteinHeuristic", "levenshtein"),
        ".vector": (
            "CosineHeuristic", "EuclideanHeuristic",
            "NormalizedEuclideanHeuristic",
        ),
    },
)
