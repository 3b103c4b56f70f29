"""Per-layer instrumentation for traced runs (``--trace 1``).

Two probes, both installed from outside the program:

* :class:`LayerSink` is a tracer sink.  It sums the durations of the
  program's own spans (``setup``, ``search``, ``simplify``,
  ``store_lookup``, ...) by name and tallies, per operator family, the
  children kept by uncached successor generation (``generate`` events).
  It keeps no event list, so a long search costs no memory.
* :class:`OperatorProbe` wraps every FIRA operator's ``apply`` and
  :meth:`MappingProblem.successors`, counting and timing the operator
  applications made while generating successors, per family.

Neither probe runs in untraced runs, which measure the end-to-end metrics.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter

#: operator families the search proposes (``Operator.keyword``)
FAMILIES = (
    "rename_att",
    "rename_rel",
    "apply",
    "promote",
    "partition",
    "merge",
    "drop",
    "deref",
    "demote",
    "product",
)


class LayerSink:
    """Aggregating tracer sink: span seconds by name, kept children by family."""

    enabled = True

    def __init__(self) -> None:
        self.events = 0
        self.span_seconds: defaultdict[str, float] = defaultdict(float)
        self.kept: Counter[str] = Counter()

    def write(self, record) -> None:
        self.events += 1
        event = record.get("event")
        if event == "span_end":
            self.span_seconds[str(record.get("name"))] += float(record.get("dur", 0.0))
        elif event == "generate" and not record.get("cached"):
            self.kept.update(record.get("ops") or {})

    def close(self) -> None:
        pass


def _operator_classes(base: type) -> list[type]:
    out, stack = [], [base]
    while stack:
        cls = stack.pop()
        out.append(cls)
        stack.extend(cls.__subclasses__())
    return out


class OperatorProbe:
    """Counts and times operator applications inside successor generation."""

    def __init__(self) -> None:
        self.applied: Counter[str] = Counter()
        self.failed: Counter[str] = Counter()
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self._generating = False
        self._applying = False

    def install(self) -> None:
        from repro.fira.base import Operator
        from repro.search.problem import MappingProblem

        MappingProblem.successors = self._wrap_successors(MappingProblem.successors)
        for cls in _operator_classes(Operator):
            if "apply" in vars(cls):
                cls.apply = self._wrap_apply(cls.apply)

    def _wrap_successors(self, successors):
        probe = self

        @functools.wraps(successors)
        def wrapped(problem, *args, **kwargs):
            probe._generating = True
            try:
                return successors(problem, *args, **kwargs)
            finally:
                probe._generating = False

        return wrapped

    def _wrap_apply(self, apply):
        probe = self

        @functools.wraps(apply)
        def wrapped(op, *args, **kwargs):
            if not probe._generating or probe._applying:
                return apply(op, *args, **kwargs)
            family = getattr(op, "keyword", type(op).__name__)
            probe._applying = True
            start = perf_counter()
            try:
                return apply(op, *args, **kwargs)
            except Exception:
                probe.failed[family] += 1
                raise
            finally:
                probe.seconds[family] += perf_counter() - start
                probe.applied[family] += 1
                probe._applying = False

        return wrapped

    def snapshot(self) -> tuple[Counter, Counter, dict]:
        return Counter(self.applied), Counter(self.failed), dict(self.seconds)
