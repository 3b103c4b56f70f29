"""Heuristic registry and the paper's tuned scaling constants.

The paper reports (§5) that "through extensive empirical evaluation ... the
following values for the heuristic scaling constants k give overall optimal
performance":

==========  ==============  ===========  ===========
algorithm   euclid_norm     cosine       levenshtein
==========  ==============  ===========  ===========
IDA         7               5            11
RBFS        20              24           15
==========  ==============  ===========  ===========

:func:`make_heuristic` builds a heuristic by name, applying these defaults
when the algorithm is known; `benchmarks/bench_table_k_calibration.py`
re-derives the constants empirically.
"""

from __future__ import annotations

from typing import Callable

from .._lazy import lazy_registry
from ..errors import UnknownHeuristicError
from ..relational.database import Database
from .base import Heuristic, ScaledHeuristic

#: where each heuristic class is defined, keyed by its ``name``;
#: ``HEURISTIC_CLASSES`` maps each name to its class
_HEURISTIC_SITES: dict[str, tuple[str, str]] = {
    "h0": (".setbased", "BlindHeuristic"),
    "h1": (".setbased", "MissingTokensHeuristic"),
    "h2": (".setbased", "CrossLevelHeuristic"),
    "h3": (".setbased", "MaxSetHeuristic"),
    "levenshtein": (".stringview", "LevenshteinHeuristic"),
    "euclid": (".vector", "EuclideanHeuristic"),
    "euclid_norm": (".vector", "NormalizedEuclideanHeuristic"),
    "cosine": (".vector", "CosineHeuristic"),
    "hybrid": (".hybrid", "HybridHeuristic"),
}
_heuristic_class, __getattr__ = lazy_registry(
    __name__, "HEURISTIC_CLASSES", _HEURISTIC_SITES
)

#: all registered heuristic names in the paper's presentation order
HEURISTIC_NAMES: tuple[str, ...] = (
    "h0",
    "h1",
    "h2",
    "h3",
    "euclid",
    "euclid_norm",
    "cosine",
    "levenshtein",
)

#: extension heuristics beyond the paper (not part of HEURISTIC_NAMES so the
#: figure benches sweep exactly the paper's eight)
EXTENSION_HEURISTIC_NAMES: tuple[str, ...] = ("hybrid",)

#: the paper's tuned scaling constants, per search algorithm
PAPER_SCALING_CONSTANTS: dict[str, dict[str, float]] = {
    "ida": {"euclid_norm": 7, "cosine": 5, "levenshtein": 11},
    "rbfs": {"euclid_norm": 20, "cosine": 24, "levenshtein": 15},
}


def default_k(heuristic: str, algorithm: str | None) -> float | None:
    """The paper's tuned k for *heuristic* under *algorithm*, if any."""
    if algorithm is None:
        return None
    return PAPER_SCALING_CONSTANTS.get(algorithm.lower(), {}).get(heuristic)


def make_heuristic(
    name: str,
    target: Database,
    k: float | None = None,
    algorithm: str | None = None,
) -> Heuristic:
    """Build the named heuristic compiled against *target*.

    Args:
        name: one of :data:`HEURISTIC_NAMES`.
        target: target critical instance.
        k: scaling constant override (scaled heuristics only).
        algorithm: ``"ida"`` or ``"rbfs"``; selects the paper's tuned k
            when *k* is not given.

    Raises:
        UnknownHeuristicError: for unregistered names.
    """
    if name not in _HEURISTIC_SITES:
        raise UnknownHeuristicError(name, HEURISTIC_NAMES)
    cls = _heuristic_class(name)
    if issubclass(cls, ScaledHeuristic):
        if k is None:
            k = default_k(name, algorithm)
        return cls(target, k=k)
    return cls(target)


HeuristicFactory = Callable[[Database], Heuristic]


def heuristic_factory(
    name: str, k: float | None = None, algorithm: str | None = None
) -> HeuristicFactory:
    """A factory closing over name/k, for APIs that defer target binding."""

    def build(target: Database) -> Heuristic:
        return make_heuristic(name, target, k=k, algorithm=algorithm)

    return build
