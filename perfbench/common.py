"""Shared pieces of the workloads: result record, statistics, set-up timing."""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

#: Set-ups timed per run, at least; ``setup_s`` is their median.
SETUP_REPEATS = 5


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: dict[str, float]                 #: end-to-end metrics
    attempted: int
    failed: int
    errors: list[str] = field(default_factory=list)   #: gate violations
    layers: dict[str, float] = field(default_factory=dict)  #: per-layer
    breakdowns: list[dict] = field(default_factory=list)
    provenance: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)  #: printed, not gated


def nearest_rank(values, q: float) -> float:
    """The ``q``-th percentile by nearest rank (below 100 samples, p99 is the max)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    return float(statistics.median(values))


def suite_mean_of_medians(walls, suite: int) -> float:
    """Mean over a suite's instances of each instance's median wall.

    ``walls`` come from whole passes over the suite, operation ``i`` on
    instance ``i mod suite``, so every instance weighs the same however
    many passes a run made.
    """
    return statistics.fmean(median(walls[k::suite]) for k in range(suite))


def until(deadline_s: float):
    """Yield 0, 1, ... until ``deadline_s`` seconds passed (at least once).

    ``assign`` and ``disseminate*`` count passes with it: a pass runs
    every suite instance once, so a run never ends part way through the
    suite.
    """
    started = time.perf_counter()
    index = 0
    while index == 0 or time.perf_counter() - started < deadline_s:
        yield index
        index += 1
