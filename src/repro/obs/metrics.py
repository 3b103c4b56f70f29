"""Metrics registry: counters, gauges, and fixed-bucket histograms.

Where the tracer answers "what happened, in order", the registry answers
"how much, in aggregate".  :class:`~repro.search.stats.SearchStats` is a
façade over it: the stats object keeps its flat public counter fields for
the hot path (plain int adds, bit-identical with telemetry off), and when
a registry is attached it additionally feeds distribution histograms
during the run and publishes every counter/timer into the registry when
the clock stops — so one registry can aggregate across many runs.

Histogram buckets are fixed at construction (Prometheus-style cumulative
``le`` boundaries plus a +Inf overflow), which keeps observation O(#buckets)
and makes registries mergeable across processes.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Mapping

#: depth distribution buckets (g-values; searches rarely exceed ~32 ops)
DEPTH_BUCKETS: tuple[float, ...] = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
#: branching-factor buckets (successors delivered per expansion)
BRANCHING_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64, 128)
#: heuristic estimate buckets (h-values; scaled heuristics map onto [0, k])
HEURISTIC_BUCKETS: tuple[float, ...] = (0, 1, 2, 4, 8, 16, 32, 64)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease ({amount})")
        self.value += amount

    def set_to(self, value: int) -> None:
        """Jump forward to an absolute value (publishing a final snapshot)."""
        if value < self.value:
            raise ValueError(
                f"counter {self.name!r} cannot decrease ({self.value} -> {value})"
            )
        self.value = value

    def __repr__(self) -> str:
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A value that can go up and down (timers, sizes, rates)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def add(self, amount: float) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"<Gauge {self.name}={self.value}>"


class Histogram:
    """Fixed-boundary cumulative histogram (counts per ``le`` bucket).

    Args:
        name: registry key.
        buckets: strictly increasing upper bounds; a +Inf bucket is
            implicit, so ``counts`` has ``len(buckets) + 1`` cells.
    """

    __slots__ = ("name", "buckets", "counts", "total", "sum")

    def __init__(self, name: str, buckets: Iterable[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError(f"histogram {name!r} needs at least one bucket")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram {name!r} buckets must strictly increase: {bounds}"
            )
        self.name = name
        self.buckets = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> dict:
        cells: dict[str, int] = {}
        for bound, count in zip(self.buckets, self.counts):
            cells[f"le_{bound:g}"] = count
        cells["le_inf"] = self.counts[-1]
        return {"total": self.total, "sum": self.sum, "buckets": cells}

    def __repr__(self) -> str:
        return f"<Histogram {self.name} n={self.total} mean={self.mean:.2f}>"


class MetricsRegistry:
    """Named instruments, get-or-create by kind.

    Asking for an existing name returns the same instrument; asking for a
    name registered under a different kind (or a histogram with different
    buckets) raises ``ValueError`` — silent shadowing would corrupt
    aggregation.
    """

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
            return instrument
        if not isinstance(instrument, kind):
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{type(instrument).__name__}, not {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge, lambda: Gauge(name))

    def histogram(self, name: str, buckets: Iterable[float]) -> Histogram:
        histogram = self._get(name, Histogram, lambda: Histogram(name, buckets))
        bounds = tuple(float(b) for b in buckets)
        if histogram.buckets != bounds:
            raise ValueError(
                f"histogram {name!r} already registered with buckets "
                f"{histogram.buckets}, asked for {bounds}"
            )
        return histogram

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def counters(self, prefix: str = "") -> dict[str, int]:
        """Counter values (only), optionally filtered by name prefix."""
        return {
            name: instrument.value
            for name, instrument in sorted(self._instruments.items())
            if isinstance(instrument, Counter) and name.startswith(prefix)
        }

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def as_dict(self) -> dict:
        """Plain-dict snapshot (counters/gauges flat, histograms nested)."""
        out: dict[str, object] = {}
        for name in self.names():
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                out[name] = instrument.as_dict()
            else:
                out[name] = instrument.value
        return out

    def publish_stats(self, stats_dict: Mapping[str, float | int]) -> None:
        """Publish a final ``SearchStats.as_dict()`` snapshot.

        Integer quantities accumulate into ``search.<name>`` counters and
        float quantities (phase timers, elapsed) accumulate into gauges,
        so a registry shared across several runs holds the totals.
        """
        for key, value in stats_dict.items():
            name = f"search.{key}"
            if isinstance(value, float):
                self.gauge(name).add(value)
            else:
                counter = self.counter(name)
                counter.inc(int(value))

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Accumulate *other*'s instruments into this registry.

        Counters and gauges add; histograms add cell-wise (bucket layouts
        must match — fixed boundaries are what make registries mergeable
        across processes).  The experiment fan-out merges each worker's
        chunk-local registry through here, so parallel sweeps publish the
        same counter and histogram totals a serial sweep would.

        Both failure modes are validated *before* any instrument is
        touched, so a raising merge never leaves this registry partially
        merged.

        Raises:
            ValueError: a name is registered under different kinds in the
                two registries, or a histogram's bucket bounds differ.
        """
        for name in other.names():
            theirs = other._instruments[name]
            mine = self._instruments.get(name)
            if mine is None:
                continue
            if type(mine) is not type(theirs):
                raise ValueError(
                    f"cannot merge metric {name!r}: "
                    f"{type(mine).__name__} here, "
                    f"{type(theirs).__name__} in the incoming registry"
                )
            if isinstance(theirs, Histogram) and mine.buckets != theirs.buckets:
                raise ValueError(
                    f"cannot merge histogram {name!r}: buckets differ "
                    f"({mine.buckets} here, {theirs.buckets} in the "
                    f"incoming registry) — fixed matching boundaries are "
                    f"what make registries mergeable"
                )
        for name in other.names():
            theirs = other._instruments[name]
            if isinstance(theirs, Counter):
                self.counter(name).inc(theirs.value)
            elif isinstance(theirs, Gauge):
                self.gauge(name).add(theirs.value)
            else:
                mine = self.histogram(name, theirs.buckets)
                for i, count in enumerate(theirs.counts):
                    mine.counts[i] += count
                mine.total += theirs.total
                mine.sum += theirs.sum

    def __repr__(self) -> str:
        return f"<MetricsRegistry {len(self)} instruments>"
