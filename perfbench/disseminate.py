"""``disseminate`` and ``disseminate_sharded``: the event plane.

A fault-free epoch-mode ``DisseminationEngine`` run over a Gr* solution.
Set-up builds and solves a fixed suite of ``SUITE`` instances.  One
operation is one dissemination job of a fixed number of uniform events
on a stream seeded by ``(seed, job)``; the run makes whole passes over
the suite, job ``j`` on instance ``j mod SUITE``, until the time is up.
The seed drives the event streams, not the instances, so runs differ by
their events rather than by which instances they drew, and the job time
reported is the mean over the suite of each instance's median.  The
set-up is timed before every pass rather than only at the start, so its
median samples the whole run.  ``disseminate_sharded`` sends the same
jobs through ``run_dissemination(shards=2, workers=2)``.  SLP does no
work here.
"""

from __future__ import annotations

import hashlib
import json
import math
import time

import numpy as np

from repro import (DisseminationEngine, GoogleGroupsConfig, RuntimeConfig,
                   UniformEvents, generate_google_groups, get_algorithm,
                   one_level_problem, simulate_dissemination)
from repro.pubsub import best_matcher
from repro.pubsub.filters import Filter
from repro.runtime import engine as engine_module
from repro.runtime.telemetry import Histogram
from repro.shard import run_dissemination
from repro.shard import runner as shard_runner

from common import (SETUP_REPEATS, Outcome, median, nearest_rank,
                    suite_mean_of_medians, until)
from spans import UNATTRIBUTED, Tracer, mean_breakdown

SCALES = {"full": (1500, 16, 8192), "tiny": (200, 6, 1024)}
SUITE = 3
SUITE_SEED = 7
EPOCH_BATCH = 512
SHARDS = 2
WORKERS = 2

#: The runtime ≡ simulator contract: every count is identical.  The
#: float latency total is summed in a different order by the two paths,
#: so it is held to a relative tolerance instead of bit equality.
CONTRACT_FIELDS = ("num_events", "node_entries", "deliveries", "missed",
                   "total_broker_entries", "delivery_rate")
LATENCY_RTOL = 1e-9

LAYERS = {"events.sample": "events.sample.s", "match": "match.s",
          "match.build": "match.s", "route": "route.s",
          "histogram": "histogram.s", "engine.run": "engine.self.s"}
SHARD_LAYERS = {"shard.plan": "shard.plan.s"}


def sha(payload: dict) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def build(instance: int, scale: str):
    """Suite instance ``instance``: problem, its Gr* solution, events."""
    subscribers, brokers, _ = SCALES[scale]
    config = GoogleGroupsConfig(num_subscribers=subscribers,
                                num_brokers=brokers,
                                interest_skew="H", broad_interests="L")
    workload = generate_google_groups([SUITE_SEED, instance], config)
    problem = one_level_problem(workload)
    solution = get_algorithm("Gr*")(problem)
    return problem, solution, UniformEvents(workload.event_domain)


def job_rng(seed: int, job: int) -> np.random.Generator:
    return np.random.default_rng([seed, job])


def simulate(instance, rng, events):
    problem, solution, distribution = instance
    return simulate_dissemination(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, distribution, rng, num_events=events,
        subscriber_points=problem.subscriber_points)


def engine_job(instance, rng, events, matcher=None):
    problem, solution, distribution = instance
    engine = DisseminationEngine(
        problem.tree, solution.filters, solution.assignment,
        problem.subscriptions, config=RuntimeConfig(epoch_batch=EPOCH_BATCH),
        subscriber_points=problem.subscriber_points, epoch_matcher=matcher)
    return engine.run(distribution, rng, events)


def sharded_job(instance, rng, events):
    problem, solution, distribution = instance
    return run_dissemination(
        problem, distribution, rng, events,
        config=RuntimeConfig(epoch_batch=EPOCH_BATCH), shards=SHARDS,
        workers=WORKERS, filters=solution.filters,
        assignment=solution.assignment)


def contract_gate(result, reference, label: str) -> list[str]:
    """``result`` (a RuntimeResult) against the batch simulator's output."""
    ours = result.as_simulation_result().to_dict()
    theirs = reference.to_dict()
    errors = []
    if sha({k: ours[k] for k in CONTRACT_FIELDS}) != \
            sha({k: theirs[k] for k in CONTRACT_FIELDS}):
        differ = [k for k in CONTRACT_FIELDS if ours[k] != theirs[k]]
        errors.append(f"{label}: runtime and simulator differ in "
                      f"{', '.join(differ)}")
    if not math.isclose(ours["total_delivery_latency"],
                        theirs["total_delivery_latency"],
                        rel_tol=LATENCY_RTOL):
        errors.append(f"{label}: delivery latency totals differ")
    return errors


def identity_gate(sharded, single, label: str) -> list[str]:
    """The sharded run's full payload is sha256-identical to one process."""
    if sha(sharded.to_dict()) != sha(single.to_dict()):
        return [f"{label}: sharded result is not sha256-identical to the "
                f"single-process run"]
    return []


class TracedMatcher:
    """Times the epoch matcher's ``match_points`` and counts its cells."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def match_points(self, points):
        counts = self._tracer.counts
        with self._tracer.span("match"):
            result = self._inner.match_points(points)
        counts["match.calls"] += 1
        counts["match.cells"] += result.size
        counts["match.hits"] += int(np.count_nonzero(result))
        return result


def _install_event_plane(tracer: Tracer) -> None:
    tracer.patch(engine_module, "sample_event_stream", "events.sample")
    tracer.patch(Filter, "contains_points", "route")
    tracer.patch(Histogram, "observe_many", "histogram")
    tracer.patch(DisseminationEngine, "run", "engine.run")


def run(seed: int, seconds: float, trace: bool, scale: str,
        sharded: bool = False) -> Outcome:
    setups = []

    def timed_suite():
        started = time.perf_counter()
        suite = [build(k, scale) for k in range(SUITE)]
        setups.append(time.perf_counter() - started)
        return suite

    events = SCALES[scale][2]
    tracer = Tracer() if trace else None

    def one_job(job: int, traced: bool):
        instance = suite[job % SUITE]
        rng = job_rng(seed, job)
        if sharded:
            return sharded_job(instance, rng, events)
        if not traced:
            return engine_job(instance, rng, events)
        problem, _solution, distribution = instance
        with tracer.span("match.build"):
            matcher = TracedMatcher(best_matcher(problem.subscriptions,
                                                 distribution.domain), tracer)
        return engine_job(instance, rng, events, matcher)

    suite = timed_suite()
    if tracer is not None:
        if sharded:
            tracer.patch(shard_runner, "plan_shards", "shard.plan")
        else:
            _install_event_plane(tracer)
    walls, results, roots = [], [], []
    try:
        for pass_ in until(seconds):
            # Rebuilt (identically) before each pass to time the set-up
            # across the run; traced runs do not report it.
            if pass_ and tracer is None:
                suite = timed_suite()
            for instance in range(SUITE):
                job = pass_ * SUITE + instance
                started = time.perf_counter()
                if tracer is None:
                    results.append(one_job(job, False))
                else:
                    with tracer.span("job") as root:
                        results.append(one_job(job, True))
                    roots.append(root)
                walls.append(time.perf_counter() - started)
    finally:
        if tracer is not None:
            tracer.unpatch()
    while tracer is None and len(setups) < SETUP_REPEATS:
        timed_suite()
    untraced_s = None
    if tracer is not None:   # the last job again, untraced: the overhead
        started = time.perf_counter()
        one_job(len(walls) - 1, False)
        untraced_s = time.perf_counter() - started

    label = "disseminate_sharded" if sharded else "disseminate"
    failed = 0
    errors: list[str] = []
    for job, outcome in enumerate(results):
        instance = suite[job % SUITE]
        result = outcome.result if sharded else outcome
        reference = simulate(instance, job_rng(seed, job), events)
        job_errors = contract_gate(result, reference, f"{label} job {job}")
        if sharded and job < SUITE:   # the first job on each instance
            single = engine_job(instance, job_rng(seed, job), events)
            job_errors += identity_gate(result, single, f"{label} job {job}")
        failed += bool(job_errors)
        errors += job_errors

    plain = [r.result for r in results] if sharded else results
    entries = sum(int(r.total_broker_entries) for r in plain)
    deliveries = sum(int(r.total_deliveries) for r in plain)
    problem, _solution, distribution = suite[0]
    job_s = suite_mean_of_medians(walls, SUITE)
    out = Outcome(
        metrics={
            "setup_s": median(setups),
            "throughput_per_s": events / job_s,
            "op_p50_ms": job_s * 1e3,
            "entries_per_delivery": entries / deliveries,
        },
        attempted=len(results), failed=failed, errors=errors,
        notes={"events_per_s": events / job_s,
               "job_p99_ms": nearest_rank(walls, 99) * 1e3,
               "jobs": len(results),
               "events_per_job": events, "instances": SUITE},
        provenance={"matcher": type(best_matcher(
            problem.subscriptions, distribution.domain)).__name__})
    if tracer is not None:
        if sharded:
            out.layers, out.breakdowns = _shard_layers(
                tracer, roots, results, walls, untraced_s)
        else:
            out.layers, out.breakdowns = _plane_layers(
                tracer, roots, walls, untraced_s)
    return out


def _plane_layers(tracer, roots, walls, untraced_s):
    wall, rows = mean_breakdown(tracer, roots, LAYERS)
    jobs = len(roots)
    counts = tracer.counts
    layers = {row: seconds for row, seconds in rows.items()
              if row != UNATTRIBUTED}
    overhead = walls[-1] - untraced_s
    layers.update({
        "match.calls": counts["match.calls"] / jobs,
        "match.cells": counts["match.cells"] / jobs,
        "match.hit_ratio": counts["match.hits"] / max(counts["match.cells"], 1),
        "route.calls": counts["route.calls"] / jobs,
        "histogram.calls": counts["histogram.calls"] / jobs,
        "trace.wall_s": wall,
        "trace.unattributed_s": rows[UNATTRIBUTED],
        "trace.overhead_s": overhead,
    })
    return layers, [{"title": "one dissemination job", "wall_s": wall,
                     "rows": rows, "overhead_s": overhead}]


def _shard_layers(tracer, roots, runs, walls, untraced_s):
    wall, rows = mean_breakdown(tracer, roots, SHARD_LAYERS)
    worker_max = sum(max(r.shard_seconds) for r in runs) / len(runs)
    worker_sum = sum(sum(r.shard_seconds) for r in runs) / len(runs)
    skew = sum(max(r.shard_seconds) / (sum(r.shard_seconds)
                                       / len(r.shard_seconds))
               for r in runs) / len(runs)
    # Everything in the job outside planning and the slowest worker is
    # dispatch (pool start, pickling) and merge.
    outside = rows.pop(UNATTRIBUTED)
    dispatch_merge = outside - worker_max
    rows.update({"shard.worker.max_s": worker_max,
                 "shard.dispatch_merge.s": dispatch_merge,
                 UNATTRIBUTED: 0.0})
    overhead = walls[-1] - untraced_s
    layers = {
        "shard.plan.s": rows["shard.plan.s"],
        "shard.worker.max_s": worker_max,
        "shard.worker.sum_s": worker_sum,
        "shard.skew": skew,
        "shard.dispatch_merge.s": dispatch_merge,
        "trace.wall_s": wall,
        "trace.unattributed_s": 0.0,
        "trace.overhead_s": overhead,
    }
    return layers, [{"title": "one sharded dissemination job",
                     "wall_s": wall, "rows": rows, "overhead_s": overhead}]
