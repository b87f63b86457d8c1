"""In-memory span recorder for the traced benchmark run.

A span is ``(name, start, end, parent)``.  Spans are opened around calls
into a layer's public functions by wrappers installed from the benchmark
(see :meth:`Tracer.patch`), kept in memory, and reduced at the end of
the run to per-layer *self* time: a span's duration minus the part of
its interval covered by its direct children.  Nothing under ``src/``
is instrumented; the one in-program mechanism read is the SLP stage
profiler, enabled through the public ``repro.perf.profiler.profiled``
(see :class:`ProfilerBridge`).
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

from repro.perf.profiler import Profiler

UNATTRIBUTED = "(unattributed)"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    thread: int = 0


class Tracer:
    """Spans per thread (a stack gives each span its parent) plus counters."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(),
                               parent=stack[-1] if stack else None,
                               thread=threading.get_ident()))
        stack.append(index)
        try:
            yield index
        finally:
            stack.pop()
            self.spans[index].end = time.perf_counter()

    def add_closed(self, name: str, start: float, end: float,
                   parent: int | None) -> int:
        self.spans.append(Span(name, start, end, parent,
                               threading.get_ident()))
        return len(self.spans) - 1

    # -- wrapping ------------------------------------------------------------

    def wrapped(self, fn, name: str):
        """``fn`` timed as span ``name``, counting calls as ``name.calls``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name + ".calls"] += 1
            with tracer.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by its traced wrapper until :meth:`unpatch`."""
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrapped(original, name))

    def unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reduction -----------------------------------------------------------

    def self_times(self, keep: set[int] | None = None) -> dict[str, float]:
        """Self seconds per span name, over the spans in ``keep`` (or all)."""
        child_time: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, float] = defaultdict(float)
        for index, span in enumerate(self.spans):
            if keep is None or index in keep:
                totals[span.name] += (span.end - span.start
                                      - child_time[index])
        return dict(totals)

    def subtree(self, root: int) -> set[int]:
        members = {root}
        for index, span in enumerate(self.spans):  # parents precede children
            if span.parent in members:
                members.add(index)
        return members


class ProfilerBridge(Profiler):
    """A ``repro.perf.profiler.Profiler`` that also records spans.

    The profiler reports each stage as ``(name, seconds)`` when the stage
    exits, so the span ends now and started ``seconds`` ago.  Stages exit
    innermost first, so the spans already closed that ended after this
    one started are its children.
    """

    def __init__(self, tracer: Tracer, prefix: str):
        super().__init__()
        self._tracer = tracer
        self._prefix = prefix
        self._orphans: list[int] = []

    def record(self, name: str, seconds: float) -> None:
        super().record(name, seconds)
        end = time.perf_counter()
        start = end - seconds
        index = self._tracer.add_closed(self._prefix + name, start, end,
                                        None)
        spans = self._tracer.spans
        while self._orphans and spans[self._orphans[-1]].end > start:
            spans[self._orphans.pop()].parent = index
        self._orphans.append(index)

    def adopt_orphans(self, parent: int) -> None:
        """Attach the outermost stages to the enclosing benchmark span."""
        for index in self._orphans:
            self._tracer.spans[index].parent = parent
        self._orphans.clear()


def breakdown(tracer: Tracer, root: int, layers: dict[str, str]) -> dict:
    """Self time per layer under ``root``, summing exactly to its wall.

    ``layers`` maps span names to layer rows; a span name outside it is
    counted in the ``(unattributed)`` row together with the root's own
    self time.
    """
    wall = tracer.spans[root].end - tracer.spans[root].start
    rows: dict[str, float] = {row: 0.0 for row in layers.values()}
    unattributed = 0.0
    for name, seconds in tracer.self_times(tracer.subtree(root)).items():
        row = layers.get(name)
        if row is None:
            unattributed += seconds
        else:
            rows[row] += seconds
    rows[UNATTRIBUTED] = unattributed
    return {"wall_s": wall, "rows": rows}


def mean_breakdown(tracer: Tracer, roots: list[int],
                   layers: dict[str, str]) -> tuple[float, dict[str, float]]:
    """Mean wall and mean rows of :func:`breakdown` over several roots."""
    parts = [breakdown(tracer, root, layers) for root in roots]
    rows = {row: sum(p["rows"][row] for p in parts) / len(parts)
            for row in parts[0]["rows"]}
    return sum(p["wall_s"] for p in parts) / len(parts), rows
