"""Live progress streaming: heartbeat updates during a running search.

:class:`~repro.search.stats.SearchStats` emits a ``progress`` trace event
and/or calls a :class:`ProgressSink` every :data:`LIMIT_CHECK_EVERY
<repro.search.stats.LIMIT_CHECK_EVERY>` examinations, piggybacking on the
existing cooperative limit polls — a progress-enabled run performs zero
additional polling.  Each update is a frozen :class:`ProgressUpdate`
snapshot: states examined/generated, frontier depth and size, the best
f-value currently under expansion, and elapsed wall-clock.

A caller attaches a :class:`CallbackProgress` per request to receive the
updates.  Interactively, ``repro discover --progress`` renders them with
:class:`ConsoleProgress`.

Callbacks run on the search thread: keep them cheap, and never let them
raise (exceptions would abort the search mid-run; :class:`ProgressSink`
subclasses should catch their own errors).  Progress hooks do not pickle,
so a :class:`~repro.parallel.fanout.PointSpec` cannot carry one: attach
them to in-process :func:`~repro.search.engine.discover_mapping` calls.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, TextIO


@dataclass(frozen=True)
class ProgressUpdate:
    """One heartbeat snapshot of a running search."""

    examined: int
    generated: int
    depth: int
    frontier: int
    best_f: float | None
    elapsed: float

    def as_dict(self) -> dict[str, float | int | None]:
        return {
            "examined": self.examined,
            "generated": self.generated,
            "depth": self.depth,
            "frontier": self.frontier,
            "best_f": self.best_f,
            "elapsed": self.elapsed,
        }


class ProgressSink:
    """Receiver of heartbeat updates; subclass and override :meth:`update`."""

    def update(self, progress: ProgressUpdate) -> None:
        raise NotImplementedError

    def finish(self) -> None:
        """Called once when the run ends (success or abort)."""


class CallbackProgress(ProgressSink):
    """Adapt a plain callable into a :class:`ProgressSink`."""

    def __init__(self, fn: Callable[[ProgressUpdate], None]) -> None:
        self.fn = fn

    def update(self, progress: ProgressUpdate) -> None:
        self.fn(progress)


class ConsoleProgress(ProgressSink):
    """Render heartbeats as a single self-overwriting status line.

    Writes ``\\r``-terminated lines to *stream* (default stderr, keeping
    stdout clean for piped results), throttled to one render per
    *min_interval* seconds so a fast search does not flood the terminal.
    :meth:`finish` ends the line so subsequent output starts clean.
    """

    def __init__(
        self, stream: TextIO | None = None, min_interval: float = 0.1
    ) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_render = 0.0
        self._rendered = False

    def update(self, progress: ProgressUpdate) -> None:
        now = perf_counter()
        if self._rendered and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self._rendered = True
        best = "-" if progress.best_f is None else f"{progress.best_f:g}"
        try:
            self.stream.write(
                f"\r  examined {progress.examined:>8}"
                f"  generated {progress.generated:>8}"
                f"  depth {progress.depth:>3}"
                f"  frontier {progress.frontier:>5}"
                f"  f {best:>8}"
                f"  {progress.elapsed:6.1f}s "
            )
            self.stream.flush()
        except (OSError, ValueError):  # closed/broken stream: go quiet
            self._last_render = float("inf")

    def finish(self) -> None:
        if not self._rendered:
            return
        try:
            self.stream.write("\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
