"""Profile the search hot kernel on one Fig. 5 synthetic point.

The Fig. 5 synthetic matching workload is the repo's canonical microcosm of
the hot kernel: IDA*/h0 at modest ``n`` spends essentially all of its time
in successor proposal, operator application, goal tests, and (with a real
heuristic) heuristic evaluation.  :func:`profile_point` runs one such
discovery under :mod:`cProfile` and distils the top cumulative-time sinks,
so a regression or an optimisation shows up as a moved line, not a vibe.

Exposed as ``repro profile`` on the CLI.  For attribution by discovery
phase rather than by Python function, ``repro trace`` renders the run's
span tree and ``repro trace --collapse`` exports it as collapsed stacks.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass, field

from ..search import SearchConfig, discover_mapping

#: sort orders accepted by :func:`profile_point`
PROFILE_SORTS = ("cumulative", "tottime")


@dataclass(frozen=True)
class ProfileRow:
    """One line of the distilled profile table."""

    ncalls: str
    tottime: float
    cumtime: float
    location: str


@dataclass(frozen=True)
class KernelProfile:
    """Result of one profiled discovery run."""

    n: int
    algorithm: str
    heuristic: str
    status: str
    states_examined: int
    elapsed_seconds: float
    sort: str
    rows: tuple[ProfileRow, ...] = field(default_factory=tuple)

    def table(self) -> str:
        """ASCII rendering: headline line plus the top-N sink rows."""
        lines = [
            f"profile: synthetic n={self.n} {self.algorithm}/{self.heuristic}",
            f"status={self.status} states_examined={self.states_examined} "
            f"elapsed={self.elapsed_seconds:.3f}s",
            "",
            f"{'ncalls':>12} {'tottime':>9} {'cumtime':>9}  function "
            f"(sorted by {self.sort})",
        ]
        for row in self.rows:
            lines.append(
                f"{row.ncalls:>12} {row.tottime:>9.3f} {row.cumtime:>9.3f}  "
                f"{row.location}"
            )
        return "\n".join(lines)


def _format_location(func: tuple[str, int, str]) -> str:
    filename, lineno, name = func
    if filename == "~":
        return name  # builtins render as e.g. "<method 'append' of 'list'>"
    short = filename
    for marker in ("/repro/", "\\repro\\"):
        if marker in filename:
            short = "repro/" + filename.split(marker, 1)[1]
            break
    return f"{short}:{lineno}({name})"


def _distil(
    profiler: cProfile.Profile, sort: str, top: int
) -> tuple[ProfileRow, ...]:
    stats = pstats.Stats(profiler)
    if sort == "cumulative":
        order = sorted(
            stats.stats.items(), key=lambda item: item[1][3], reverse=True
        )
    else:
        order = sorted(
            stats.stats.items(), key=lambda item: item[1][2], reverse=True
        )
    rows = []
    for func, (cc, nc, tottime, cumtime, _callers) in order[:top]:
        ncalls = str(nc) if cc == nc else f"{nc}/{cc}"
        rows.append(
            ProfileRow(
                ncalls=ncalls,
                tottime=tottime,
                cumtime=cumtime,
                location=_format_location(func),
            )
        )
    return tuple(rows)


def profile_point(
    n: int = 5,
    algorithm: str = "ida",
    heuristic: str = "h0",
    budget: int = 1_000_000,
    top: int = 20,
    sort: str = "cumulative",
    warm: bool = True,
) -> KernelProfile:
    """cProfile one synthetic matching discovery and distil the sinks.

    Args:
        n: synthetic schema size (Fig. 5 x-axis).
        algorithm / heuristic / budget: forwarded to the search engine.
        top: number of profile rows to keep.
        sort: ``"cumulative"`` (default) or ``"tottime"``.
        warm: run the discovery once unprofiled first, so one-time costs
            (intern pool population, import side effects) don't drown the
            steady-state kernel in the profile.
    """
    if sort not in PROFILE_SORTS:
        raise ValueError(f"sort must be one of {PROFILE_SORTS}, got {sort!r}")
    from ..workloads import matching_pair

    pair = matching_pair(n)
    config = SearchConfig(max_states=budget)
    if warm:
        discover_mapping(
            pair.source, pair.target, algorithm=algorithm,
            heuristic=heuristic, config=config,
        )
    profiler = cProfile.Profile()
    profiler.enable()
    result = discover_mapping(
        pair.source, pair.target, algorithm=algorithm,
        heuristic=heuristic, config=config,
    )
    profiler.disable()
    return KernelProfile(
        n=n,
        algorithm=algorithm,
        heuristic=heuristic,
        status=result.status,
        states_examined=result.stats.states_examined,
        elapsed_seconds=result.stats.elapsed,
        sort=sort,
        rows=_distil(profiler, sort, top),
    )

