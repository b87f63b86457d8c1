"""Deterministic discrete-event simulation of the broker overlay.

The batch simulator (:mod:`repro.pubsub.simulator`) answers "how much
traffic does this assignment cost" by pushing all events through the
tree at once.  This engine answers the *temporal* questions the batch
model abstracts away: what happens when events queue up behind slow
brokers, when a broker crashes mid-run, when links drop messages, and
when subscribers churn while traffic is flowing.

Model
-----

* The publisher emits sampled events at ``publish_interval`` spacing.
* A message travels a tree edge in the edge's latency (Euclidean hop
  distance, exactly the :class:`~repro.network.tree.BrokerTree` model).
* Each broker has a FIFO ingress queue and a configurable per-event
  ``service_time``; an optional ``queue_capacity`` drops arrivals when
  the queue is full (backpressure), which the telemetry accounts.
* A broker forwards a serviced event to each child whose filter matches;
  leaf brokers additionally deliver to their assigned subscribers whose
  subscription contains the event.
* Control actions (faults, churn, reassignment) are scheduled at
  arbitrary times via :meth:`DisseminationEngine.schedule`.

Correctness anchor: with zero faults, zero service time, and a frozen
population, a run over the same RNG-sampled event stream reproduces
``simulate_dissemination`` *exactly* — same per-broker entry counts,
same deliveries, same misses (``tests/test_runtime_engine.py``).

Everything is deterministic: the event stream comes from the caller's
RNG, link loss from a separately seeded generator, and heap ties are
broken by insertion order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..geometry import RectSet
from ..network.tree import PUBLISHER, BrokerTree
from ..pubsub.events import EventDistribution
from ..pubsub.filters import Filter
from ..pubsub.matching import Matcher, best_matcher
from ..pubsub.simulator import (SimulationResult, route_columns,
                                sample_event_stream)
from .telemetry import Histogram, Telemetry

__all__ = ["RuntimeConfig", "RuntimeResult", "DisseminationEngine",
           "RESULT_SCHEMA_VERSION"]

#: Schema version stamped into result/telemetry JSON exports so
#: serve/runtime/bench payloads are uniformly parseable.
RESULT_SCHEMA_VERSION = 1

# Control actions run before message arrivals scheduled at the same
# timestamp (a crash at t affects the event arriving at t), and
# publishes run after arrivals so in-flight work drains first.
_PRIO_CONTROL, _PRIO_ARRIVE, _PRIO_PUBLISH = 0, 1, 2


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the discrete-event runtime."""

    publish_interval: float = 1.0   #: simulated time between published events
    service_time: float = 0.0       #: per-event service time at every broker
    queue_capacity: int | None = None  #: max ingress queue depth (None = unbounded)
    link_loss: float = 0.0          #: per-hop message loss probability
    fault_seed: int = 0             #: seed of the loss RNG (independent of events)
    trace_events: int = 0           #: record a trace span for the first N events
    max_duration: float | None = None  #: abort past this simulated time
    epoch_batch: int = 0            #: publishes serviced per matrix step (0 = scalar)

    def __post_init__(self) -> None:
        if self.epoch_batch < 0:
            raise ValueError("epoch_batch must be non-negative")
        if self.publish_interval < 0:
            raise ValueError("publish_interval must be non-negative")
        if self.max_duration is not None and self.max_duration <= 0:
            raise ValueError("max_duration must be positive (or None)")
        if self.service_time < 0:
            raise ValueError("service_time must be non-negative")
        if self.queue_capacity is not None and self.queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1 (or None)")
        if not (0.0 <= self.link_loss < 1.0):
            raise ValueError("link_loss must be in [0, 1)")
        if self.trace_events < 0:
            raise ValueError("trace_events must be non-negative")


@dataclass(frozen=True)
class RuntimeResult(SimulationResult):
    """Counts and telemetry of one engine run.

    The count fields, and the metrics derived from them, are those of
    :class:`~repro.pubsub.simulator.SimulationResult`, so the two compare
    directly (see :meth:`as_simulation_result`).
    """

    duration: float                #: simulated time of the last processed action
    queue_peaks: np.ndarray        #: max ingress queue depth seen per node
    telemetry: Telemetry
    aborted: bool = False          #: run hit the config's ``max_duration``

    @property
    def total_deliveries(self) -> int:
        return int(self.deliveries.sum())

    @property
    def total_missed(self) -> int:
        return int(self.missed.sum())

    def events_per_time(self) -> float:
        """Published events per unit of simulated time."""
        if self.duration <= 0.0:
            return 0.0
        return self.num_events / self.duration

    def as_simulation_result(self) -> SimulationResult:
        """View as a batch :class:`SimulationResult` (its JSON form too)."""
        return SimulationResult(
            num_events=self.num_events,
            node_entries=self.node_entries,
            deliveries=self.deliveries,
            missed=self.missed,
            total_delivery_latency=self.total_delivery_latency)

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready export sharing the bench payloads' schema fields.

        Deterministic (no provenance); :meth:`dump` adds the git/host
        metadata block so runtime outputs parse like ``BENCH_*.json``.
        """
        return {
            "schema_version": RESULT_SCHEMA_VERSION,
            "kind": "runtime_result",
            "num_events": self.num_events,
            "node_entries": self.node_entries.tolist(),
            "deliveries": self.deliveries.tolist(),
            "missed": self.missed.tolist(),
            "total_delivery_latency": self.total_delivery_latency,
            "duration": self.duration,
            "queue_peaks": self.queue_peaks.tolist(),
            "aborted": self.aborted,
            "delivery_rate": self.delivery_rate,
            "telemetry": self.telemetry.to_dict(),
        }


class _BrokerState:
    """Mutable per-broker runtime state: liveness, queue, service."""

    __slots__ = ("alive", "busy", "queue", "peak")

    def __init__(self) -> None:
        self.alive = True
        self.busy = False
        self.queue: deque[tuple[int, float]] = deque()  # (event idx, arrival t)
        self.peak = 0


class DisseminationEngine:
    """The discrete-event runtime over one broker tree.

    Parameters
    ----------
    tree, filters, assignment, subscriptions:
        Exactly the batch simulator's inputs; ``assignment[j]`` is the
        leaf node id serving subscriber ``j`` or ``-1`` for an inactive
        subscriber (churn).  Filters and assignment may be replaced
        mid-run via :meth:`update_filters` / :meth:`update_assignment`
        (the fault and replay drivers do).
    subscriber_points:
        Optional subscriber network positions; adds the leaf-to-subscriber
        last hop to delivery latency, matching the batch simulator.
    delivery_members:
        Optional subscriber indices this engine accounts deliveries for
        (a shard's subgroup).  The *control plane* — forwarding, queues,
        loss draws, faults, failover — is subscriber-independent and runs
        in full; only matched/delivery counters and the delivery latency
        histogram are restricted, so summing disjoint shards reproduces
        the full run.
    epoch_matcher:
        Pre-built matcher for epoch mode, rows over ``delivery_members``
        (or the full population).  Shard workers inject a cover-filtered
        one; ``None`` builds :func:`best_matcher` lazily.
    """

    def __init__(self,
                 tree: BrokerTree,
                 filters: dict[int, Filter],
                 assignment: np.ndarray,
                 subscriptions: RectSet,
                 *,
                 config: RuntimeConfig | None = None,
                 subscriber_points: np.ndarray | None = None,
                 telemetry: Telemetry | None = None,
                 delivery_members: np.ndarray | None = None,
                 epoch_matcher: Matcher | None = None):
        self.tree = tree
        self.config = config or RuntimeConfig()
        self.telemetry = telemetry if telemetry is not None else Telemetry()

        for node in range(1, tree.num_nodes):
            if node not in filters:
                raise ValueError(f"missing filter for broker node {node}")
        self._filters = dict(filters)

        self._subscriptions = subscriptions
        assignment = np.asarray(assignment, dtype=int).copy()
        if assignment.shape != (len(subscriptions),):
            raise ValueError("assignment must map every subscriber to a leaf "
                             "node id (or -1 for inactive)")
        self._assignment = assignment
        if subscriber_points is not None:
            pts = np.asarray(subscriber_points, dtype=float)
            if pts.shape[0] != len(subscriptions):
                raise ValueError("one network position per subscriber required")
            self._subscriber_points: np.ndarray | None = pts
        else:
            self._subscriber_points = None

        # Hop latency parent -> node, per node (publisher row unused).
        parents = tree.parents
        self._hop = np.zeros(tree.num_nodes)
        for v in range(1, tree.num_nodes):
            self._hop[v] = tree.down_latency[v] - tree.down_latency[int(parents[v])]

        self._brokers = [_BrokerState() for _ in range(tree.num_nodes)]
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._controls: list[tuple[float, Callable[
            ["DisseminationEngine", float], None]]] = []
        self._loss_rng = np.random.default_rng(self.config.fault_seed)
        self._failover: Callable[["DisseminationEngine", float, int], None] | None = None

        m = len(subscriptions)
        if delivery_members is not None:
            members = np.unique(np.asarray(delivery_members, dtype=int))
            if len(members) and (members[0] < 0 or members[-1] >= m):
                raise ValueError("delivery_members must be valid subscriber "
                                 "indices")
            self._delivery_members: np.ndarray | None = members
            self._member_mask: np.ndarray | None = np.zeros(m, dtype=bool)
            self._member_mask[members] = True
            # Full index -> local matcher row (-1 outside the subgroup).
            self._member_rows: np.ndarray | None = np.full(m, -1, dtype=int)
            self._member_rows[members] = np.arange(len(members))
        else:
            self._delivery_members = None
            self._member_mask = None
            self._member_rows = None
        self._node_entries = np.zeros(tree.num_nodes, dtype=np.int64)
        self._deliveries = np.zeros(m, dtype=np.int64)
        self._matched = np.zeros(m, dtype=np.int64)
        # Every delivery's latency, exactly and order-free (see
        # Histogram): scalar heap order, epoch blocks and shard splits
        # all reach the same total.  Folded into the telemetry at run end.
        self._latency = Histogram("delivery_latency")
        self._now = 0.0
        self._events: np.ndarray | None = None
        self._traces: list[Any] = []

        # Epoch-mode machinery (see run()): a min-heap of pending control
        # times (the epoch barriers) and a watermark of publishes
        # consumed by matrix blocks.
        self._pending_controls: list[float] = []
        self._running = False
        self._published_through = 0
        self._epoch_matcher = epoch_matcher
        self._run_interval = self.config.publish_interval
        self._run_domain: Any = None

    # -- live state accessors ------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def assignment(self) -> np.ndarray:
        return self._assignment.copy()

    @property
    def filters(self) -> dict[int, Filter]:
        return dict(self._filters)

    def is_alive(self, node: int) -> bool:
        return self._brokers[node].alive

    @property
    def alive_mask(self) -> np.ndarray:
        return np.array([b.alive for b in self._brokers], dtype=bool)

    def reachable_leaf_rows(self) -> np.ndarray:
        """Boolean mask over leaf rows whose full path to the root is alive."""
        alive = self.alive_mask
        mask = np.zeros(self.tree.num_leaves, dtype=bool)
        for row, leaf in enumerate(self.tree.leaves):
            mask[row] = all(alive[v] for v in self.tree.path_to_root(int(leaf))
                            if v != PUBLISHER)
        return mask

    # -- mid-run mutation (faults / churn drivers) ---------------------------

    def update_filters(self, filters: dict[int, Filter]) -> None:
        """Replace broker filters (e.g. after failover regrowth)."""
        self._filters.update(filters)

    def update_assignment(self, assignment: np.ndarray) -> None:
        """Replace the subscriber -> leaf assignment (churn, failover)."""
        assignment = np.asarray(assignment, dtype=int)
        if assignment.shape != self._assignment.shape:
            raise ValueError("assignment shape must not change mid-run")
        self._assignment[:] = assignment

    def set_failover(self, handler: Callable[
            ["DisseminationEngine", float, int], None] | None) -> None:
        """Install a crash handler ``handler(engine, time, crashed_node)``."""
        self._failover = handler

    def schedule(self, time: float,
                 action: Callable[["DisseminationEngine", float], None]) -> None:
        """Schedule ``action(engine, time)`` as a control at a simulated time.

        Valid both before and during :meth:`run`: a control scheduled
        mid-run (e.g. a delayed failover repair) goes straight into the
        live heap.  (Before this, mid-run controls landed in the pre-run
        staging list — already drained — and silently never fired.)
        """
        time = float(time)
        if self._running:
            heapq.heappush(self._pending_controls, time)
            self._push(time, _PRIO_CONTROL, action)
        else:
            self._controls.append((time, action))

    def schedule_crash(self, time: float, node: int) -> None:
        self._validate_broker(node)
        self.schedule(time, lambda eng, t, _n=node: eng._crash(_n, t))

    def schedule_recover(self, time: float, node: int) -> None:
        self._validate_broker(node)
        self.schedule(time, lambda eng, t, _n=node: eng._recover(_n, t))

    def _validate_broker(self, node: int) -> None:
        if not (0 < node < self.tree.num_nodes):
            raise ValueError(f"node {node} is not a broker "
                             f"(valid: 1..{self.tree.num_nodes - 1})")

    # -- fault transitions ---------------------------------------------------

    def _crash(self, node: int, time: float) -> None:
        state = self._brokers[node]
        if not state.alive:
            return
        state.alive = False
        dropped = len(state.queue) + (1 if state.busy else 0)
        if dropped:
            self.telemetry.counter("events_lost_crashed").inc(dropped)
        state.queue.clear()
        state.busy = False
        self.telemetry.counter("broker_crashes").inc()
        self.telemetry.span(f"outage[node={node}]", time, node=node)
        if self._failover is not None:
            self._failover(self, time, node)

    def _recover(self, node: int, time: float) -> None:
        state = self._brokers[node]
        if state.alive:
            return
        state.alive = True
        self.telemetry.counter("broker_recoveries").inc()
        for span in self.telemetry.find_spans(f"outage[node={node}]"):
            if span.end is None:
                span.close(time)

    # -- the run -------------------------------------------------------------

    def run(self,
            distribution: EventDistribution,
            rng: np.random.Generator,
            num_events: int,
            chunk_size: int = 512) -> RuntimeResult:
        """Publish ``num_events`` sampled events and drain the overlay.

        The stream is sampled with the same chunking as the batch
        simulator, so the same ``rng`` state yields the identical
        sequence of event points.
        """
        if num_events < 0:
            raise ValueError("num_events must be non-negative")
        self._events = sample_event_stream(distribution, rng, num_events,
                                           chunk_size)
        for time, action in sorted(self._controls, key=lambda c: c[0]):
            self._push(time, _PRIO_CONTROL, action)
            heapq.heappush(self._pending_controls, time)
        self._controls.clear()
        for k in range(num_events):
            self._push(k * self.config.publish_interval, _PRIO_PUBLISH, k)

        self._running = True
        self._published_through = 0
        self._run_interval = self.config.publish_interval
        self._run_domain = distribution.domain

        aborted = False
        max_duration = self.config.max_duration
        heap = self._heap
        while heap:
            time, prio, _seq, payload = heapq.heappop(heap)
            if max_duration is not None and time > max_duration:
                # The guard against runaway replays: everything still
                # scheduled lies beyond the budget, so stop here.
                aborted = True
                self.telemetry.counter("aborted_max_duration").inc()
                heap.clear()
                break
            self._now = max(self._now, time)
            if prio == _PRIO_CONTROL:
                heapq.heappop(self._pending_controls)
                payload(self, time)
            elif prio == _PRIO_PUBLISH:
                k = int(payload)
                if k < self._published_through:
                    continue  # consumed by an earlier epoch block
                if self._epoch_eligible() and k >= self.config.trace_events:
                    if self._epoch_matcher is None:
                        self._epoch_matcher = best_matcher(
                            self._delivery_subscriptions(), self._run_domain)
                    self._publish_epoch(k)
                else:
                    self._publish(k, time)
                    self._published_through = k + 1
            else:
                node, event_idx, kind = payload
                if kind == "arrive":
                    self._arrive(node, event_idx, time)
                else:
                    self._serve(node, event_idx, time)
        self._running = False

        if self._latency.count:
            self.telemetry.histogram("delivery_latency").merge(self._latency)
        for span in self.telemetry.open_spans():
            span.close(self._now)
        missed = np.maximum(self._matched - self._deliveries, 0)
        self.telemetry.counter("missed_deliveries").inc(int(missed.sum()))
        peaks = np.array([b.peak for b in self._brokers], dtype=np.int64)
        if peaks.size:
            self.telemetry.gauge("queue_depth_peak").set(int(peaks.max()))
        return RuntimeResult(
            num_events=num_events,
            node_entries=self._node_entries.copy(),
            deliveries=self._deliveries.copy(),
            missed=missed,
            total_delivery_latency=self._latency.sum,
            duration=self._now,
            queue_peaks=peaks,
            telemetry=self.telemetry,
            aborted=aborted)

    def _push(self, time: float, prio: int, payload: Any) -> None:
        heapq.heappush(self._heap, (time, prio, self._seq, payload))
        self._seq += 1

    def _delivery_subscriptions(self) -> RectSet:
        """The subscription rows this engine accounts deliveries for."""
        if self._delivery_members is None:
            return self._subscriptions
        return self._subscriptions.take(self._delivery_members)

    def _epoch_eligible(self) -> bool:
        """Can the next publish run as a matrix step, per the *current* config?

        Epoch mode engages only where a matrix step is provably
        equivalent to scalar stepping: instantaneous service, no
        backpressure, no link-loss RNG draws, strictly increasing publish
        times (then no arrival can ever find a broker busy, so queue
        state is trivial between control barriers).

        Re-evaluated at every publish rather than latched at run start: a
        control action may swap ``self.config`` mid-run (a fault handler
        enabling service time, a replay driver adding backpressure), and
        a stale gate would keep matrix-stepping under assumptions that no
        longer hold.  A changed publish interval also disqualifies the
        fast path — the publish heap was laid out with the run-start
        interval, so matrix time vectors would disagree with the heap.
        """
        config = self.config
        return (config.epoch_batch > 0
                and config.service_time == 0.0
                and config.queue_capacity is None
                and config.link_loss == 0.0
                and config.publish_interval > 0.0
                and config.publish_interval == self._run_interval)

    # -- message lifecycle ---------------------------------------------------

    def _publish(self, k: int, time: float) -> None:
        point = self._events[k]
        self._node_entries[PUBLISHER] += 1
        self.telemetry.counter("events_published").inc()

        # Record which active subscribers *should* receive this event;
        # deliveries are debited against this at the end of the run.
        active = self._assignment >= 0
        if self._member_mask is not None:
            active = active & self._member_mask
        if active.any():
            matches = self._subscriptions.contains_points(
                point[None, :])[:, 0] & active
            self._matched[matches] += 1

        if k < self.config.trace_events:
            span = self.telemetry.span(f"event[{k}]", time, event=k, hops=0,
                                       deliveries=0)
            self._traces.append(span)

        self._forward(PUBLISHER, k, time)

    def _publish_epoch(self, k: int) -> None:
        """Service a contiguous run of publishes as one matrix step.

        Semantics and bit-identity: under the epoch preconditions every
        action of event ``j`` happens at ``t_j = j * publish_interval``
        plus a chain of hop latencies, so the exact per-node arrival
        times of a whole candidate block are one level-wise matrix
        recurrence (the identical float additions the scalar heap would
        perform).  The block is cut to the longest prefix whose events
        complete strictly *before* the next pending control time (and
        within ``max_duration``), so crash/recover/churn barriers see
        exactly the scalar engine's state.  Counts are the same boolean
        matrices summed; each delivery's latency is the same float the
        scalar path computes, and the whole block's latencies enter the
        order-free latency histogram in one call.
        """
        config = self.config
        tree = self.tree
        end = min(k + config.epoch_batch, len(self._events))
        t_vec = np.arange(k, end, dtype=np.int64) * config.publish_interval
        arrive = np.empty((tree.num_nodes, len(t_vec)))
        arrive[PUBLISHER] = t_vec
        for level in tree.levels:
            arrive[level] = (arrive[tree.parents[level]]
                             + self._hop[level][:, None])
        bound = arrive.max(axis=0)   # conservative: over all nodes
        barrier = (self._pending_controls[0] if self._pending_controls
                   else np.inf)
        ok = bound < barrier
        if config.max_duration is not None:
            ok &= bound <= config.max_duration
        n = len(ok) if bool(ok.all()) else int(np.argmin(ok))
        if n == 0:
            # The very next event straddles a barrier: step it scalar.
            self._publish(k, float(t_vec[0]))
            self._published_through = k + 1
            return

        pts = self._events[k:k + n]
        t_vec = t_vec[:n]
        arrive = arrive[:, :n]
        self.telemetry.counter("events_published").inc(n)

        # Matcher rows are local to the delivery subgroup (the full
        # population when unsharded); `_member_rows` maps full indices
        # to rows so leaf member lookups stay over the global assignment.
        match = self._epoch_matcher.match_points(pts)  # (rows, n) bool
        active = self._assignment >= 0
        if self._delivery_members is None:
            if active.any():
                self._matched += (match & active[:, None]).sum(axis=1)
        else:
            act = active[self._delivery_members]
            if act.any():
                self._matched[self._delivery_members] += (
                    match & act[:, None]).sum(axis=1)

        # An event arrives at a node iff it entered the parent and the
        # node's filter contains it; arrivals at a crashed node are
        # lost, not forwarded, so a node is entered only along a path of
        # alive brokers.
        arrived = route_columns(tree, self._filters, pts)
        alive = self.alive_mask
        if alive.all():
            entered = arrived
        else:
            path_alive = alive.copy()
            for level in tree.levels:
                path_alive[level] &= path_alive[tree.parents[level]]
            parent_alive = path_alive[np.maximum(tree.parents, 0)]
            parent_alive[PUBLISHER] = True
            arrived = arrived & parent_alive[:, None]
            entered = arrived & path_alive[:, None]
            lost = int(arrived[~alive].sum())
            if lost:
                self.telemetry.counter("events_lost_crashed").inc(lost)
        counts = entered.sum(axis=1)
        self._node_entries += counts
        entries = int(counts[1:].sum())
        if entries:
            self.telemetry.counter("broker_entries").inc(entries)

        delivered_total = 0
        latencies = []
        for leaf in tree.leaves:
            leaf = int(leaf)
            col = entered[leaf]
            if not col.any():
                continue
            members = np.flatnonzero(self._assignment == leaf)
            if self._member_mask is not None:
                members = members[self._member_mask[members]]
            if len(members) == 0:
                continue
            rows = (members if self._member_rows is None
                    else self._member_rows[members])
            delivered = match[rows] & col[None, :]
            self._deliveries[members] += delivered.sum(axis=1)
            receivers, events = np.nonzero(delivered)
            if len(receivers) == 0:
                continue
            delivered_total += len(receivers)
            latency = arrive[leaf, events] - t_vec[events]
            if self._subscriber_points is not None:
                hop = np.linalg.norm(
                    tree.positions[leaf] - self._subscriber_points[members],
                    axis=1)
                latency = latency + hop[receivers]
            latencies.append(latency)
        if delivered_total:
            self.telemetry.counter("deliveries").inc(delivered_total)
            self._latency.observe_many(np.concatenate(latencies))

        # Advance the clock to the block's last *processed* action: the
        # final publish, or the latest arrival that actually happened.
        self._now = max(self._now, float(arrive[arrived].max()))
        self._published_through = k + n

    def _forward(self, node: int, k: int, time: float) -> None:
        """Send event ``k`` from ``node`` to each matching child."""
        point = self._events[k]
        for child in self.tree.children(node):
            if not self._filters[child].contains_point(point):
                continue
            if self.config.link_loss > 0.0 and \
                    self._loss_rng.random() < self.config.link_loss:
                self.telemetry.counter("link_drops").inc()
                continue
            self._push(time + self._hop[child], _PRIO_ARRIVE,
                       (child, k, "arrive"))

    def _arrive(self, node: int, k: int, time: float) -> None:
        state = self._brokers[node]
        if not state.alive:
            self.telemetry.counter("events_lost_crashed").inc()
            return
        self._node_entries[node] += 1
        self.telemetry.counter("broker_entries").inc()
        if k < self.config.trace_events:
            span = self._traces[k]
            span.attributes["hops"] += 1
            span.end = time

        if state.busy:
            capacity = self.config.queue_capacity
            if capacity is not None and len(state.queue) >= capacity:
                self.telemetry.counter("events_dropped_backpressure").inc()
                return
            state.queue.append((k, time))
            state.peak = max(state.peak, len(state.queue))
        else:
            state.busy = True
            self._push(time + self.config.service_time, _PRIO_ARRIVE,
                       (node, k, "serve"))

    def _serve(self, node: int, k: int, time: float) -> None:
        state = self._brokers[node]
        if not state.alive:
            # Crash raced the in-flight service completion; already counted.
            return
        if self.tree.is_leaf(node):
            self._deliver(node, k, time)
        self._forward(node, k, time)

        if state.queue:
            next_k, queued_at = state.queue.popleft()
            self.telemetry.histogram("queue_wait").observe(time - queued_at)
            self._push(time + self.config.service_time, _PRIO_ARRIVE,
                       (node, next_k, "serve"))
        else:
            state.busy = False

    def _deliver(self, leaf: int, k: int, time: float) -> None:
        members = np.flatnonzero(self._assignment == leaf)
        if self._member_mask is not None:
            members = members[self._member_mask[members]]
        if len(members) == 0:
            return
        point = self._events[k]
        mask = self._subscriptions.take(members).contains_points(
            point[None, :])[:, 0]
        receivers = members[mask]
        if len(receivers) == 0:
            return
        self._deliveries[receivers] += 1
        latency = np.full(len(receivers),
                          time - k * self.config.publish_interval)
        if self._subscriber_points is not None:
            latency = latency + np.linalg.norm(
                self.tree.positions[leaf] - self._subscriber_points[receivers],
                axis=1)
        for value in latency.tolist():
            self._latency.observe(value)
        self.telemetry.counter("deliveries").inc(len(receivers))
        if k < self.config.trace_events:
            span = self._traces[k]
            span.attributes["deliveries"] += len(receivers)
            span.end = time
