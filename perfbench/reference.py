"""Host-speed references, timed beside every sample.

A shared host slows down and speeds up by tens of percent over minutes, as
other tenants come and go.  Such drift moves every workload of one kind by
about the same factor, so ``run.py`` times a reference of the same kind
right before and after each sample and rescales the sample to the
reference's nominal speed::

    reported = measured * nominal / reference

Two references, neither of which calls ``repro`` code, so a change to the
program cannot move them:

* :func:`reference_seconds`, for in-process samples, does the kind of work
  the search kernel does: probe a table too large for the CPU caches, build
  tuples and strings, fill sets and dicts, sort.
* :func:`startup_reference_seconds`, for samples that start a Python
  process, starts an interpreter that imports the same heavy third-party
  and standard modules the program's start-up imports.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

#: the reference's duration on the quiet 2-vCPU host the benchmark was
#: written on; only scales the reported numbers, never their ratios
NOMINAL_SECONDS = 0.010

#: entries in the reference's lookup table: large enough (tens of MB) that
#: its probes miss the CPU caches, as the search's memo tables do, so the
#: reference also feels contention for memory bandwidth and shared cache
_TABLE_SIZE = 1 << 16
_PROBES = 4_000
_table: dict[tuple, tuple] = {}
_keys: list[tuple] = []


def _build_table() -> None:
    for i in range(_TABLE_SIZE):
        key = (f"R{i % 251}", i)
        _keys.append(key)
        _table[key] = (i & 1023, f"v{i}")


def _work() -> int:
    if not _table:
        _build_table()
    seen: set[tuple] = set()
    index: dict[str, int] = {}
    stride, size = 104_729, _TABLE_SIZE
    for i in range(_PROBES):
        name, _ = key = _keys[(i * stride) % size]
        low, text = _table[key]
        row = (name, low, text[-2:])
        if row not in seen:
            seen.add(row)
            index[name] = index.get(name, 0) + 1
    ordered = sorted(seen, key=lambda row: (row[1], row[0]))
    return len(ordered) + len(frozenset(index.items()))


def reference_seconds(passes: int = 3) -> float:
    """Median wall time of *passes* passes of the reference workload."""
    times = []
    for _ in range(passes):
        start = perf_counter()
        _work()
        times.append(perf_counter() - start)
    return sorted(times)[len(times) // 2]


#: the start-up reference's duration on the same host
NOMINAL_STARTUP_SECONDS = 0.2
_STARTUP_IMPORTS = "import argparse, csv, decimal, json, sqlite3, numpy"


def startup_reference_seconds(env: dict) -> float:
    """Wall time of an interpreter that imports :data:`_STARTUP_IMPORTS`."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-c", _STARTUP_IMPORTS],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return perf_counter() - start


class StartupSamples:
    """Process-start timings interleaved with start-up references.

    Each timing is rescaled by the mean of the references taken right
    before and right after it; call :meth:`close` after the last timing.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.references: list[float] = []
        self.samples: list[tuple[float, int]] = []

    def time(self, fn):
        """Run ``fn() -> (out, wall seconds)`` after a reference; return it."""
        self.references.append(startup_reference_seconds(self.env))
        out, wall = fn()
        self.samples.append((wall, len(self.references) - 1))
        return out, wall

    def close(self) -> None:
        self.references.append(startup_reference_seconds(self.env))

    def scaled(self) -> list[tuple[float, float]]:
        """``(wall seconds, scale)`` for every timing."""
        refs = self.references
        return [
            (wall, 2.0 * NOMINAL_STARTUP_SECONDS / (refs[k] + refs[k + 1]))
            for wall, k in self.samples
        ]
