"""Trace inspection: record a Fig. 5 workload trace and read the profile.

The paper's Fig. 5 measures IDA* on the synthetic matching workload
(A1..An -> B1..Bn) — with the blind heuristic h0 the deepening iterations
re-expand shallow states heavily, which is exactly the behaviour a flat
"states examined" counter can't show.  This example traces that run three
ways:

1. in memory (``MemorySink``) — replay the events back into counters and
   check they match the live ``SearchStats`` exactly;
2. to disk (``JsonlSink`` via ``--trace``-style recording) — reload with
   ``load_trace`` (schema-validated) and render the full run profile;
3. as a distribution — count part 1's ``expand`` events by depth with
   ``collections.Counter`` (the trace, not a separate registry, keeps
   every per-state value).

Run:  python examples/trace_inspection.py
"""

from __future__ import annotations

import tempfile
from collections import Counter
from pathlib import Path

from repro import discover_mapping
from repro.obs import (
    EXPAND,
    JsonlSink,
    MemorySink,
    Tracer,
    load_trace,
    replay_counters,
    run_profile,
)
from repro.workloads import matching_pair

#: Fig. 5 workload size — big enough for several IDA* thresholds
SIZE = 5


def main() -> None:
    pair = matching_pair(SIZE)

    # --- 1. trace into memory and verify the replay contract ---------------
    sink = MemorySink()
    result = discover_mapping(
        pair.source,
        pair.target,
        algorithm="ida",
        heuristic="h0",
        tracer=Tracer(sink),
        simplify=False,
    )
    replayed = replay_counters(sink.events)
    assert replayed["states_examined"] == result.stats.states_examined
    assert replayed["states_generated"] == result.stats.states_generated
    assert replayed["iterations"] == result.stats.iterations
    assert replayed["cache_hits"] == result.stats.cache_hits
    print(
        f"replay contract holds: {replayed['states_examined']} states examined, "
        f"{replayed['iterations']} IDA* iterations, "
        f"{replayed['cache_hits']} cache hits — identical live and replayed"
    )

    # --- 2. persist to JSONL, reload, render the profile --------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"fig5_ida_h0_n{SIZE}.jsonl"
        with Tracer(JsonlSink(path)) as tracer:
            discover_mapping(
                pair.source,
                pair.target,
                algorithm="ida",
                heuristic="h0",
                tracer=tracer,
                simplify=False,
            )
        events = load_trace(path)  # schema-validated; old versions fail loudly
        print(f"\npersisted {len(events)} events to {path.name}; profile:\n")
        print(run_profile(events))

    # --- 3. the depth distribution, read from part 1's expand events -------
    depths = Counter(e["depth"] for e in sink.events if e["event"] == EXPAND)
    examined = sum(depths.values())
    mean = sum(depth * n for depth, n in depths.items()) / examined
    print(
        f"\nexpand events: mean examined depth {mean:.2f} over {examined} "
        f"examinations; {result.stats.states_examined} states examined"
    )
    for depth in sorted(depths):
        print(f"  depth {depth}: {depths[depth]}")


if __name__ == "__main__":
    main()
