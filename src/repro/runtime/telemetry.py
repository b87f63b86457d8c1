"""Runtime telemetry: counters, gauges, histograms, and trace spans.

The discrete-event engine emits everything through one
:class:`Telemetry` instance so a run's behaviour can be inspected after
the fact — delivered/lost/dropped counts, queue depth peaks, delivery
latency distributions, and spans marking intervals of interest (broker
outages, per-event dissemination traces).  All state is plain Python and
numpy, is fully deterministic given a deterministic event sequence, and
exports to a JSON-serializable dict (:meth:`Telemetry.to_dict`) or a
JSON string/file (:meth:`Telemetry.to_json` / :meth:`Telemetry.dump`).

Histograms are streaming: fixed bucket boundaries, so observing a value
is O(log #buckets) and memory does not grow with the number of
observations.  Quantiles are therefore bucket-resolution estimates.
A histogram's ``sum`` is an :class:`ExactSum`: the correctly rounded sum
of every observed value, independent of the order (or the batching) in
which the values arrived, so two histograms over disjoint parts of a
run :meth:`~Histogram.merge` into exactly the histogram of the whole.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["Counter", "Gauge", "ExactSum", "Histogram", "TraceSpan",
           "Telemetry", "default_latency_buckets",
           "TELEMETRY_SCHEMA_VERSION"]

#: Version of the exported JSON layout; parsers key on it, and every
#: export carries it so serve/runtime/bench payloads read uniformly.
TELEMETRY_SCHEMA_VERSION = 1


class Counter:
    """A monotonically increasing integer counter."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str):
        self.name = name
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only increase; use a Gauge instead")
        self._value += int(amount)

    def reset_to(self, value: int) -> None:
        """Overwrite the count.

        For merge paths only (a shard parent replacing a shard-local
        tally with the global one); live accounting must use :meth:`inc`.
        """
        if value < 0:
            raise ValueError("counters cannot be negative")
        self._value = int(value)

    @property
    def value(self) -> int:
        return self._value

    def to_dict(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A point-in-time value tracking its last / min / max over the run."""

    __slots__ = ("name", "_last", "_min", "_max", "_updates")

    def __init__(self, name: str):
        self.name = name
        self._last: float | None = None
        self._min: float | None = None
        self._max: float | None = None
        self._updates = 0

    def set(self, value: float) -> None:
        value = float(value)
        self._last = value
        self._min = value if self._min is None else min(self._min, value)
        self._max = value if self._max is None else max(self._max, value)
        self._updates += 1

    @property
    def last(self) -> float | None:
        return self._last

    @property
    def max(self) -> float | None:
        return self._max

    @property
    def min(self) -> float | None:
        return self._min

    def to_dict(self) -> dict[str, Any]:
        return {"last": self._last, "min": self._min, "max": self._max,
                "updates": self._updates}

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._last}, max={self._max})"


class ExactSum:
    """An exact, order-free float accumulator.

    Every finite double is ``f * 2**e`` with ``frexp``'s ``0.5 <= |f| <
    1``, so ``f * 2**53`` is an integer mantissa.  The accumulator keeps
    one Python-int mantissa total per exponent ``e``; adding values and
    merging accumulators are integer additions, hence associative and
    commutative.  :attr:`value` rounds the exact total once, so it is
    exactly :func:`math.fsum` of all values added, whatever their order
    or grouping.
    """

    __slots__ = ("_totals",)

    #: Split of a 53-bit mantissa into two limbs of at most 26 and 27
    #: bits, and the block length under which ``np.bincount`` sums whole
    #: limbs in float64 exactly (every partial sum stays below 2**53).
    _HI, _LO = 2.0 ** 26, 2.0 ** 27
    _BLOCK = 1 << 26

    def __init__(self) -> None:
        self._totals: dict[int, int] = {}

    def add(self, value: float) -> None:
        """Add one value: a ``frexp`` and an integer add, no numpy."""
        if not math.isfinite(value):
            raise ValueError(f"cannot accumulate non-finite value {value!r}")
        f, e = math.frexp(value)
        if f:
            self._totals[e] = self._totals.get(e, 0) + int(f * 2.0 ** 53)

    def add_many(self, values: np.ndarray) -> None:
        """Add an array of values with a few numpy reductions."""
        values = np.asarray(values, dtype=float).ravel()
        if not np.isfinite(values).all():
            raise ValueError("cannot accumulate non-finite values")
        for start in range(0, values.size, self._BLOCK):
            f, e = np.frexp(values[start:start + self._BLOCK])
            base = int(e.min())
            bins = e - base
            f *= self._HI
            hi = np.trunc(f)          # integer part, |hi| < 2**26
            f -= hi
            f *= self._LO             # exact integer, |lo| < 2**27
            hi_sums = np.bincount(bins, weights=hi)
            lo_sums = np.bincount(bins, weights=f)
            totals = self._totals
            for k in np.flatnonzero((hi_sums != 0) | (lo_sums != 0)):
                mantissa = (int(hi_sums[k]) << 27) + int(lo_sums[k])
                e_k = base + int(k)
                totals[e_k] = totals.get(e_k, 0) + mantissa

    def merge(self, other: "ExactSum") -> None:
        """Add another accumulator's total into this one (exactly)."""
        for e, mantissa in other._totals.items():
            self._totals[e] = self._totals.get(e, 0) + mantissa

    @property
    def value(self) -> float:
        """The exact total, correctly rounded (``math.fsum`` semantics)."""
        if not self._totals:
            return 0.0
        low = min(self._totals)
        total = sum(m << (e - low) for e, m in self._totals.items())
        shift = low - 53
        if shift >= 0:
            return float(total << shift)
        return total / (1 << -shift)   # int / int rounds correctly


def default_latency_buckets() -> tuple[float, ...]:
    """Geometric bucket upper bounds covering this repo's latency scales.

    Network coordinates live in roughly ``[0, 100]^d``, so path latencies
    range from sub-1 to a few hundred; the spread covers both comfortably.
    """
    return tuple(0.5 * (2.0 ** k) for k in range(14))  # 0.5 .. 4096


class Histogram:
    """A fixed-bucket streaming histogram with count/sum/min/max.

    ``bounds`` are inclusive upper bucket boundaries; values above the
    last boundary land in a final overflow bucket.  Every field is
    order-free (integer counts, an :class:`ExactSum`, min/max), so the
    histogram of a multiset of values does not depend on how it was
    observed or merged.
    """

    __slots__ = ("name", "_bounds", "_counts", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, bounds: tuple[float, ...] | None = None):
        self.name = name
        bounds = tuple(float(b) for b in
                       (bounds if bounds is not None else default_latency_buckets()))
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError("histogram bounds must be strictly increasing")
        self._bounds = bounds
        self._counts = np.zeros(len(bounds) + 1, dtype=np.int64)
        self._count = 0
        self._sum = ExactSum()
        self._min: float | None = None
        self._max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        self._sum.add(value)      # rejects non-finite values first
        self._counts[bisect.bisect_left(self._bounds, value)] += 1
        self._count += 1
        self._extend(value, value)

    def observe_many(self, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        self._sum.add_many(values)   # rejects non-finite values first
        self._counts += np.bincount(
            np.searchsorted(self._bounds, values, side="left"),
            minlength=len(self._counts))
        self._count += int(values.size)
        self._extend(float(values.min()), float(values.max()))

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram over the same bounds into this one.

        Exact: the result equals observing both histograms' values here.
        """
        if other._bounds != self._bounds:
            raise ValueError("can only merge histograms with equal bounds")
        if other._count == 0:
            return
        self._counts += other._counts
        self._count += other._count
        self._sum.merge(other._sum)
        self._extend(other._min, other._max)

    def _extend(self, lo: float, hi: float) -> None:
        self._min = lo if self._min is None else min(self._min, lo)
        self._max = hi if self._max is None else max(self._max, hi)

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> float:
        if self._count == 0:
            return 0.0
        return self.sum / self._count

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket).

        Returns 0.0 for an empty histogram.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError("quantile must be in [0, 1]")
        if self._count == 0:
            return 0.0
        rank = q * self._count
        running = 0
        for k, c in enumerate(self._counts):
            running += int(c)
            if running >= rank:
                if k < len(self._bounds):
                    return self._bounds[k]
                return self._max if self._max is not None else 0.0
        return self._max if self._max is not None else 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "count": self._count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self._min,
            "max": self._max,
            "buckets": [{"le": b, "count": int(c)}
                        for b, c in zip(self._bounds, self._counts)]
                       + [{"le": None, "count": int(self._counts[-1])}],
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name}, n={self._count}, mean={self.mean:.3g})"


@dataclass
class TraceSpan:
    """A named interval of simulated time with free-form attributes.

    ``end`` stays ``None`` while the span is open; the engine closes any
    still-open span at the end of a run.
    """

    name: str
    start: float
    end: float | None = None
    attributes: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float | None:
        if self.end is None:
            return None
        return self.end - self.start

    def close(self, end: float) -> None:
        if self.end is not None:
            raise ValueError(f"span {self.name!r} is already closed")
        if end < self.start:
            raise ValueError(f"span {self.name!r} cannot end before it starts")
        self.end = float(end)

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "duration": self.duration, "attributes": dict(self.attributes)}


class Telemetry:
    """A registry of named counters, gauges, histograms, and spans."""

    def __init__(self):
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._spans: list[TraceSpan] = []

    # -- instrument accessors (create on first use) -------------------------

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def gauge(self, name: str) -> Gauge:
        if name not in self._gauges:
            self._gauges[name] = Gauge(name)
        return self._gauges[name]

    def histogram(self, name: str,
                  bounds: tuple[float, ...] | None = None) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, bounds)
        return self._histograms[name]

    def span(self, name: str, start: float, **attributes: Any) -> TraceSpan:
        """Open a new span; the caller closes it (or the engine does at end)."""
        span = TraceSpan(name=name, start=float(start), attributes=attributes)
        self._spans.append(span)
        return span

    @property
    def histograms(self) -> dict[str, Histogram]:
        """The histograms observed so far, by name (read without creating)."""
        return dict(self._histograms)

    @property
    def spans(self) -> list[TraceSpan]:
        return self._spans

    def open_spans(self) -> list[TraceSpan]:
        return [s for s in self._spans if s.end is None]

    def find_spans(self, name: str) -> list[TraceSpan]:
        return [s for s in self._spans if s.name == name]

    # -- export --------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": TELEMETRY_SCHEMA_VERSION,
            "counters": {k: c.to_dict() for k, c in sorted(self._counters.items())},
            "gauges": {k: g.to_dict() for k, g in sorted(self._gauges.items())},
            "histograms": {k: h.to_dict()
                           for k, h in sorted(self._histograms.items())},
            "spans": [s.to_dict() for s in self._spans],
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def dump(self, path: str) -> None:
        """Write the JSON export with the bench payloads' provenance block.

        ``to_json`` stays deterministic (run-to-run comparable); the
        file form additionally records git commit, timestamp, and host —
        the same metadata ``BENCH_*.json`` carries — so persisted
        telemetry is interpretable long after the run.
        """
        from ..bench.harness import run_metadata  # lazy: avoids cycles
        payload = self.to_dict()
        payload["metadata"] = run_metadata()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=False)
            fh.write("\n")

    def __repr__(self) -> str:
        return (f"Telemetry(counters={len(self._counters)}, "
                f"gauges={len(self._gauges)}, "
                f"histograms={len(self._histograms)}, spans={len(self._spans)})")
