"""Sharded dissemination: replicated control plane, partitioned delivery.

The engine's message plane — forwarding decisions, queues, backpressure,
link-loss RNG draws, crashes, failover repair, churn replay — depends
only on the tree, filters, assignment, and fault schedule, never on
*which* subscribers are being accounted.  So every shard worker runs the
**full** engine over the complete problem and restricts only the
delivery plane to its subgroup (``delivery_members``): matched/delivery
counters, the delivery latency histogram, and the per-shard
cover-filtered matcher.  The parent then

1. asserts the control planes agree bit-for-bit (node entries, duration,
   queue peaks, abort flag) — any divergence is a determinism bug;
2. scatter-sums the disjoint per-subscriber counters;
3. merges the shards' delivery latency histograms.  Each shard's
   histogram holds exactly its subgroup's deliveries, every delivery's
   latency is the float the unsharded engine computes for it, and a
   histogram's sum is exact and order-free
   (:class:`~repro.runtime.telemetry.ExactSum`), so the merged histogram
   and the latency total are *identical* to a single-process run.

That construction makes ``--shards N`` sha256-bit-identical to
``--shards 1`` for every configuration except per-event trace spans
(``trace_events > 0`` attributes deliveries to spans mid-run, which is
subscriber-dependent; the runner refuses that combination).

Worker dispatch goes through :func:`repro.perf.parallel.run_tasks`,
which is itself proven seed-for-seed equal between serial and
process-pool execution — so worker count never affects results, only
wall clock.
"""

from __future__ import annotations

import copy
import os
import time
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.problem import SAProblem
from ..dynamic.churn import ChurnTrace
from ..perf.parallel import run_tasks
from ..pubsub.events import EventDistribution
from ..pubsub.filters import Filter
from ..pubsub.matching import best_matcher
from ..pubsub.simulator import SimulationResult, simulate_dissemination
from ..runtime.engine import (DisseminationEngine, RuntimeConfig,
                              RuntimeResult)
from ..runtime.faults import FaultPlan, apply_fault_plan
from ..runtime.replay import ReplayConfig, prepare_replay, replay_churn
from ..runtime.telemetry import Telemetry
from .matcher import CoverMatcher, SubgroupMatcher
from .plan import ShardPlan, plan_shards

__all__ = ["ShardRun", "run_dissemination", "simulate_sharded"]


@dataclass(frozen=True)
class ShardRun:
    """A dissemination run's result plus the sharding diagnostics."""

    result: RuntimeResult
    plan: ShardPlan | None            #: None for unsharded runs
    workers: int                      #: worker processes actually used
    shard_seconds: tuple[float, ...]  #: per-shard wall clock (critical path)


@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker needs to replay the full run, picklable."""

    problem: SAProblem
    filters: dict[int, Filter] | None
    assignment: np.ndarray | None
    config: RuntimeConfig
    distribution: EventDistribution
    rng: np.random.Generator
    num_events: int
    chunk_size: int
    fault_plan: FaultPlan | None
    failover: bool
    trace: ChurnTrace | None
    replay_config: ReplayConfig | None
    manager_seed: int
    members: np.ndarray | None
    cover: Filter | None


def _engine_kwargs(task: _ShardTask) -> dict[str, Any]:
    kwargs: dict[str, Any] = {}
    if task.members is None:
        return kwargs
    kwargs["delivery_members"] = task.members
    if task.config.epoch_batch > 0 and len(task.members):
        inner = best_matcher(
            task.problem.subscriptions.take(task.members),
            task.distribution.domain)
        cover = task.cover
        if cover is None:
            cover = Filter.from_rects(
                [task.problem.subscriptions.take(task.members).meb()])
        kwargs["epoch_matcher"] = CoverMatcher(inner, cover,
                                               len(task.members))
    return kwargs


def _run_shard(task: _ShardTask) -> dict[str, Any]:
    """Run the full engine with delivery accounting restricted to a shard."""
    started = time.perf_counter()
    kwargs = _engine_kwargs(task)
    if task.trace is not None:
        engine, _system = prepare_replay(
            task.problem, task.trace, task.num_events,
            engine_config=task.config, replay_config=task.replay_config,
            fault_plan=task.fault_plan, failover=task.failover,
            manager_seed=task.manager_seed, engine_kwargs=kwargs)
    else:
        engine = DisseminationEngine(
            task.problem.tree, task.filters, task.assignment,
            task.problem.subscriptions, config=task.config,
            subscriber_points=task.problem.subscriber_points, **kwargs)
        if task.fault_plan is not None:
            apply_fault_plan(engine, task.fault_plan,
                             task.problem if task.failover else None,
                             failover=task.failover)
    result = engine.run(task.distribution, task.rng, task.num_events,
                        task.chunk_size)
    return {"result": result, "seconds": time.perf_counter() - started}


def _merge_partials(partials: list[dict[str, Any]]) -> RuntimeResult:
    """Deterministic shard merge; see the module docstring for the proof."""
    base = partials[0]["result"]
    for index, partial in enumerate(partials[1:], start=1):
        other = partial["result"]
        if (not np.array_equal(other.node_entries, base.node_entries)
                or other.duration != base.duration
                or other.aborted != base.aborted
                or not np.array_equal(other.queue_peaks, base.queue_peaks)):
            raise RuntimeError(
                f"shard {index}'s control plane diverged from shard 0's — "
                "the run is not deterministic (this is a bug)")

    deliveries = np.sum([p["result"].deliveries for p in partials], axis=0)
    missed = np.sum([p["result"].missed for p in partials], axis=0)

    # Each worker's telemetry is fresh, so its delivery latency
    # histogram holds exactly its subgroup's deliveries; the merge is
    # exact (integer counts, an order-free sum).
    telemetry = base.telemetry
    for partial in partials[1:]:
        histogram = partial["result"].telemetry.histograms.get(
            "delivery_latency")
        if histogram is not None:
            telemetry.histogram("delivery_latency").merge(histogram)
    latency = telemetry.histograms.get("delivery_latency")

    # Shard 0's telemetry carries the (identical) control-plane metrics;
    # patch in the global delivery accounting.
    total_deliveries = int(deliveries.sum())
    if total_deliveries:
        telemetry.counter("deliveries").reset_to(total_deliveries)
    telemetry.counter("missed_deliveries").reset_to(int(missed.sum()))

    return RuntimeResult(
        num_events=base.num_events,
        node_entries=base.node_entries,
        deliveries=deliveries,
        missed=missed,
        total_delivery_latency=latency.sum if latency is not None else 0.0,
        duration=base.duration,
        queue_peaks=base.queue_peaks,
        telemetry=telemetry,
        aborted=base.aborted)


def run_dissemination(problem: SAProblem,
                      distribution: EventDistribution,
                      rng: np.random.Generator,
                      num_events: int,
                      *,
                      config: RuntimeConfig | None = None,
                      shards: int = 1,
                      workers: int | None = None,
                      filters: dict[int, Filter] | None = None,
                      assignment: np.ndarray | None = None,
                      fault_plan: FaultPlan | None = None,
                      failover: bool = True,
                      trace: ChurnTrace | None = None,
                      replay_config: ReplayConfig | None = None,
                      manager_seed: int = 0,
                      chunk_size: int = 512,
                      plan: ShardPlan | None = None,
                      telemetry: Telemetry | None = None) -> ShardRun:
    """Run the dissemination engine, optionally sharded across processes.

    ``shards <= 1`` is *literally* the single-process path (one engine,
    or one churn replay); ``shards > 1`` partitions the population with
    :func:`plan_shards` (by assigned leaf, or by feasibility signature
    under churn where the assignment evolves), runs one full-control
    engine per shard restricted to its subgroup, and merges — the
    result is bit-identical by construction regardless of ``workers``.
    """
    config = config or RuntimeConfig()
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if trace is None and (filters is None or assignment is None):
        raise ValueError("pass filters+assignment, or a churn trace")
    if shards > 1:
        if config.trace_events > 0:
            raise ValueError(
                "sharded runs do not support trace_events: per-event "
                "trace spans attribute deliveries mid-run, which is "
                "subscriber-dependent; run --shards 1 to trace")
        if telemetry is not None:
            raise ValueError("sharded runs own their telemetry; the "
                             "merged result carries it")

    if shards <= 1:
        started = time.perf_counter()
        if trace is not None:
            result, _system = replay_churn(
                problem, trace, distribution, rng, num_events,
                engine_config=config, replay_config=replay_config,
                fault_plan=fault_plan, failover=failover,
                manager_seed=manager_seed, telemetry=telemetry)
        else:
            engine = DisseminationEngine(
                problem.tree, filters, assignment, problem.subscriptions,
                config=config, subscriber_points=problem.subscriber_points,
                telemetry=telemetry)
            if fault_plan is not None:
                apply_fault_plan(engine, fault_plan,
                                 problem if failover else None,
                                 failover=failover)
            result = engine.run(distribution, rng, num_events, chunk_size)
        return ShardRun(result=result, plan=None, workers=1,
                        shard_seconds=(time.perf_counter() - started,))

    if plan is None:
        plan = plan_shards(
            problem.subscriptions, shards,
            # Under churn the assignment evolves mid-run; group by the
            # static feasibility signature instead.
            assignment=None if trace is not None else assignment,
            feasible=problem.feasible_leaf if trace is not None else None)
    tasks = [
        _ShardTask(problem=problem, filters=filters, assignment=assignment,
                   config=config, distribution=distribution,
                   # Every shard consumes the identical stream: each gets
                   # a private copy of the caller's generator state.
                   rng=copy.deepcopy(rng),
                   num_events=num_events, chunk_size=chunk_size,
                   fault_plan=fault_plan, failover=failover, trace=trace,
                   replay_config=replay_config, manager_seed=manager_seed,
                   members=members, cover=cover)
        for members, cover in zip(plan.members, plan.covers)]
    if workers is None:
        workers = min(len(tasks), os.cpu_count() or 1)
    partials = run_tasks(_run_shard, tasks, workers=workers)
    result = _merge_partials(partials)
    return ShardRun(result=result, plan=plan, workers=workers,
                    shard_seconds=tuple(p["seconds"] for p in partials))


# -- sharded batch simulation ------------------------------------------------


@dataclass(frozen=True)
class _SimShardTask:
    """One shard's slice of a batch simulation, picklable."""

    problem: SAProblem
    filters: dict[int, Filter]
    assignment: np.ndarray
    distribution: EventDistribution
    rng: np.random.Generator
    num_events: int
    chunk_size: int
    members: np.ndarray
    cover: Filter


def _run_sim_shard(task: _SimShardTask) -> dict[str, Any]:
    # Mask non-members out of the assignment: the filter traversal (and
    # so node entries) is unchanged, but deliveries/misses accrue only
    # to this shard's subgroup.  The matcher scatters subgroup rows into
    # full-population indices, so the simulator needs no shard logic.
    started = time.perf_counter()
    assignment = np.asarray(task.assignment, dtype=int).copy()
    mask = np.zeros(len(assignment), dtype=bool)
    mask[task.members] = True
    assignment[~mask] = -1
    matcher = SubgroupMatcher(task.problem.subscriptions, task.members,
                              cover=task.cover,
                              domain=task.distribution.domain)
    result = simulate_dissemination(
        task.problem.tree, task.filters, assignment,
        task.problem.subscriptions, task.distribution, task.rng,
        num_events=task.num_events, chunk_size=task.chunk_size,
        subscriber_points=task.problem.subscriber_points, matcher=matcher)
    return {"result": result, "seconds": time.perf_counter() - started}


def simulate_sharded(problem: SAProblem,
                     filters: dict[int, Filter],
                     assignment: np.ndarray,
                     distribution: EventDistribution,
                     rng: np.random.Generator,
                     num_events: int,
                     *,
                     shards: int = 1,
                     workers: int | None = None,
                     chunk_size: int = 512,
                     plan: ShardPlan | None = None,
                     ) -> tuple[SimulationResult, ShardPlan | None]:
    """Batch simulation partitioned across shards, bit-identical merge.

    The total delivery latency is *recomputed* from the merged delivery
    counts — the batch simulator derives it as ``(deliveries *
    path_latency).sum()``, so summing per-shard floats would change the
    addition order; re-deriving from exact integer counts reproduces the
    single-process float bit-for-bit.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if shards <= 1:
        result = simulate_dissemination(
            problem.tree, filters, assignment, problem.subscriptions,
            distribution, rng, num_events=num_events, chunk_size=chunk_size,
            subscriber_points=problem.subscriber_points)
        return result, None
    if plan is None:
        plan = plan_shards(problem.subscriptions, shards,
                           assignment=assignment)
    tasks = [
        _SimShardTask(problem=problem, filters=filters,
                      assignment=assignment, distribution=distribution,
                      rng=copy.deepcopy(rng), num_events=num_events,
                      chunk_size=chunk_size, members=members, cover=cover)
        for members, cover in zip(plan.members, plan.covers)]
    if workers is None:
        workers = min(len(tasks), os.cpu_count() or 1)
    partials = run_tasks(_run_sim_shard, tasks, workers=workers)

    base = partials[0]["result"]
    for index, partial in enumerate(partials[1:], start=1):
        if not np.array_equal(partial["result"].node_entries,
                              base.node_entries):
            raise RuntimeError(
                f"shard {index}'s node entries diverged from shard 0's — "
                "the run is not deterministic (this is a bug)")
    deliveries = np.sum([p["result"].deliveries for p in partials], axis=0)
    missed = np.sum([p["result"].missed for p in partials], axis=0)
    assignment = np.asarray(assignment, dtype=int)
    last_hop = np.zeros(len(assignment))
    if problem.subscriber_points is not None:
        last_hop = np.linalg.norm(
            problem.tree.positions[assignment] - problem.subscriber_points,
            axis=1)
    path_latency = problem.tree.down_latency[assignment].astype(float) \
        + last_hop
    total_latency = float((deliveries * path_latency).sum())
    return SimulationResult(
        num_events=base.num_events,
        node_entries=base.node_entries,
        deliveries=deliveries,
        missed=missed,
        total_delivery_latency=total_latency), plan
