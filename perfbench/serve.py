"""``serve``: a live ``ServeDaemon`` in its own process, driven open loop.

One benchmark process holds two connections.  The *sink* subscribes the
whole population and sends churn (unsubscribe, then resubscribe, of a
seeded sequence of subscribers) at 10 ops/s; the *pub* connection
publishes single events at 200 events/s (``RATES``).  Both
are open loop: each request goes out at its due time whether or not
earlier ones were answered, and every latency is measured from that due
time, so a stall also charges the requests queued behind it.

With two or more CPUs the benchmark process and the daemon run on
disjoint CPUs, as a remote client and its server would.  Left to the
scheduler they share one CPU in some runs and not in others, and the
median delivery latency moves by a third between the two (measured on
a 2-vCPU host: 1.8-1.9 ms apart, 2.5-2.6 ms together).
"""

from __future__ import annotations

import asyncio
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from repro.pubsub import UniformEvents, best_matcher, sample_event_stream
from repro.serve import ServeClient, ServeError

from common import SETUP_REPEATS, Outcome, median, nearest_rank
from serve_daemon import REOPT_THRESHOLD, SCALES as DAEMON_SCALES, build_instance
from spans import UNATTRIBUTED, Span, Tracer

HERE = Path(__file__).resolve().parent
LAUNCHER = HERE / "serve_daemon.py"
SRC = HERE.parent / "src"

#: (publish events/s, churn ops/s) per scale.
RATES = {"full": (200.0, 10.0), "tiny": (100.0, 10.0)}
REQUEST_TIMEOUT = 30.0
START_TIMEOUT = 120.0
DRAIN_TIMEOUT = 5.0
STOP_TIMEOUT = 30.0
SERVING = re.compile(r"^serving .* on (\S+):(\d+)\s*$")

#: Loop-thread spans -> breakdown rows.  ``serve.reopt`` runs in a worker
#: thread beside the loop and is reported outside the sum.
LAYERS = {"serve.publish": "serve.publish.s", "serve.route": "serve.route.s",
          "serve.match": "serve.match.s",
          "serve.subscribe": "serve.subscribe.s",
          "serve.frame_read": "serve.frame_read.s",
          "serve.frame_write": "serve.frame_write.s",
          "serve.idle": "serve.idle.s"}
STAT_LAYERS = ("matched", "delivered", "dropped_backpressure", "missed",
               "queue_depth_peak", "reoptimizations", "reopt_migrations",
               "request_errors")


class Daemon:
    """One launched daemon process: its port, captured output, reaping."""

    def __init__(self, scale: str, trace: bool, cpus: set[int] | None):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        self.proc = subprocess.Popen(
            [sys.executable, str(LAUNCHER), "--scale", scale,
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=env)
        if cpus is not None:   # before the daemon starts any thread
            os.sched_setaffinity(self.proc.pid, cpus)
        self._stdout: queue.Queue[str | None] = queue.Queue()
        self.stderr: list[str] = []
        self._readers = [
            threading.Thread(target=self._pump_stdout, daemon=True),
            threading.Thread(target=self._pump_stderr, daemon=True)]
        for reader in self._readers:
            reader.start()

    def _pump_stdout(self) -> None:
        for line in self.proc.stdout:
            self._stdout.put(line)
        self._stdout.put(None)

    def _pump_stderr(self) -> None:
        self.stderr.extend(self.proc.stderr)

    def address(self) -> tuple[str, int]:
        """Block until the ``serving ... on host:port`` line; return it."""
        deadline = time.monotonic() + START_TIMEOUT
        while True:
            try:
                line = self._stdout.get(
                    timeout=max(deadline - time.monotonic(), 0.001))
            except queue.Empty:
                raise RuntimeError("daemon did not report its address") \
                    from None
            if line is None:
                raise RuntimeError("daemon exited before serving: "
                                   + "".join(self.stderr[-5:]))
            match = SERVING.match(line)
            if match:
                return match.group(1), int(match.group(2))

    def stop(self) -> str | None:
        """SIGTERM, wait (kill if stuck), reap; the last stdout line."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdin.close()
        for reader in self._readers:
            reader.join(timeout=STOP_TIMEOUT)
        last = None
        while True:
            try:
                line = self._stdout.get_nowait()
            except queue.Empty:
                break
            if line is not None and line.strip():
                last = line
        return last

    @property
    def unhandled_exceptions(self) -> int:
        return sum("Traceback (most recent call last)" in line
                   for line in self.stderr)


def split_cpus() -> tuple[set[int], set[int]] | None:
    """(benchmark CPUs, daemon CPUs): the first allowed CPU and the rest."""
    if not hasattr(os, "sched_getaffinity"):
        return None
    cpus = sorted(os.sched_getaffinity(0))
    return ({cpus[0]}, set(cpus[1:])) if len(cpus) > 1 else None


async def start_ready(scale: str, trace: bool, cpus: set[int] | None):
    """Spawn a daemon and bring it to ready; the daemon, sink and seconds.

    Ready: all subscribers subscribed, a re-optimization committed and
    no further one due.  Readiness is probed with ``ping`` and ``stats``.
    """
    started = time.perf_counter()
    daemon = Daemon(scale, trace, cpus)
    sink = None
    try:
        host, port = await asyncio.to_thread(daemon.address)
        sink = await ServeClient.connect(host, port)
        await sink.ping()
        await asyncio.gather(*(sink.subscribe(j)
                               for j in range(DAEMON_SCALES[scale][0])))
        # Re-optimizations fire while the population subscribes; ready
        # once one has committed and no further one is due.
        while True:
            stats = await sink.stats()
            if stats["reoptimizations"] >= 1 \
                    and stats["churn_since_reopt"] < REOPT_THRESHOLD:
                break
            await asyncio.sleep(0.01)
    except BaseException:
        if sink is not None:
            await sink.close()
        await asyncio.to_thread(daemon.stop)
        raise
    return daemon, sink, time.perf_counter() - started, (host, port)


async def drive(sink: ServeClient, address, seed: int, scale: str,
                seconds: float) -> dict:
    """The open-loop publish + churn phase, then the drain."""
    rate, churn_rate = RATES[scale]
    workload, problem = build_instance(scale)
    rng = np.random.default_rng([seed, 1])
    num_events = max(int(rate * seconds), 1)
    num_churn = 2 * max(int(churn_rate * seconds / 2), 1)
    points = sample_event_stream(UniformEvents(workload.event_domain),
                                 rng, num_events)
    flappers = rng.permutation(problem.num_subscribers)

    received: Counter = Counter()
    delivery: list[float] = []
    matched: dict[int, int] = {}
    rtt: list[float] = []
    churn_latency: list[float] = []
    late: list[float] = []
    last_receipt = last_reply = 0.0

    async def consume() -> None:
        nonlocal last_receipt
        while True:
            message = await sink.events.get()
            last_receipt = time.perf_counter()
            delivery.append(last_receipt - message["sentAt"])
            received[message["eventId"]] += 1

    async def publish_one(pub: ServeClient, k: int, due: float) -> None:
        nonlocal last_reply
        sent = time.perf_counter()
        try:
            reply = await pub.request(
                "publish", timeout=REQUEST_TIMEOUT,
                point=[float(x) for x in points[k]], sentAt=due, eventId=k)
        except (ServeError, asyncio.TimeoutError, ConnectionError):
            return   # counted as failed: no reply, no matched count
        last_reply = time.perf_counter()
        rtt.append(last_reply - sent)
        matched[k] = reply["matched"]

    async def churn_one(i: int, due: float) -> None:
        op = "unsubscribe" if i % 2 == 0 else "subscribe"
        try:
            await sink.request(op, timeout=REQUEST_TIMEOUT,
                               subscriber=int(flappers[i // 2]))
        except (ServeError, asyncio.TimeoutError, ConnectionError):
            return   # counted as failed: no latency sample
        churn_latency.append(time.perf_counter() - due)

    async def schedule(count: int, per_second: float, start: float,
                       launch) -> list[asyncio.Task]:
        tasks = []
        for i in range(count):
            due = start + i / per_second
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(time.perf_counter() - due, 0.0))
            tasks.append(asyncio.create_task(launch(i, due)))
        return tasks

    consumer = asyncio.create_task(consume())
    pub = await ServeClient.connect(*address)
    try:
        reopts_before = (await pub.stats())["reoptimizations"]
        window_start = time.perf_counter()
        start = window_start + 0.05
        batches = await asyncio.gather(
            schedule(num_events, rate, start,
                     lambda k, due: publish_one(pub, k, due)),
            schedule(num_churn, churn_rate, start, churn_one))
        await asyncio.gather(*batches[0], *batches[1])
        # Drain: until the sink holds every delivery the server counted.
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        stats = await pub.stats()
        while time.perf_counter() < deadline:
            if sum(received.values()) >= stats["delivered"]:
                break
            await asyncio.sleep(0.02)
            stats = await pub.stats()
        await asyncio.sleep(0.05)
        stats = await pub.stats()
        window_end = time.perf_counter()
    finally:
        consumer.cancel()
        await asyncio.gather(consumer, return_exceptions=True)
        await pub.close()
    return {"stats": stats, "received": received, "delivery": delivery,
            "matched": matched, "rtt": rtt, "churn": churn_latency,
            "late": late,
            "num_events": num_events, "num_churn": num_churn,
            # From the first due publish to its last reply or delivery.
            "phase_s": max(last_receipt, last_reply) - start,
            "window": (window_start, window_end), "problem": problem,
            "reopts_in_window": stats["reoptimizations"] - reopts_before}


def gate(stats: dict, received_total: int) -> list[str]:
    """Server-side accounting and client receipt must agree exactly."""
    errors = []
    accounted = (stats["delivered"] + stats["dropped_backpressure"]
                 + stats["missed"])
    if accounted != stats["matched"]:
        errors.append(f"serve: delivered+dropped+missed={accounted} but "
                      f"matched={stats['matched']}")
    if received_total != stats["delivered"]:
        errors.append(f"serve: sink received {received_total} but server "
                      f"delivered {stats['delivered']}")
    if stats["request_errors"]:
        errors.append(f"serve: {stats['request_errors']} request errors")
    return errors


async def session(seed: int, seconds: float, trace: bool, scale: str,
                  daemon_cpus: set[int] | None):
    setups = []
    daemon = sink = None
    try:
        for repeat in range(SETUP_REPEATS):
            daemon, sink, seconds_to_ready, address = await start_ready(
                scale, trace, daemon_cpus)
            setups.append(seconds_to_ready)
            if repeat < SETUP_REPEATS - 1:
                await sink.close()
                await asyncio.to_thread(daemon.stop)
                daemon = sink = None
        phase = await drive(sink, address, seed, scale, seconds)
    finally:
        if sink is not None:
            await sink.close()
        final = (await asyncio.to_thread(daemon.stop)
                 if daemon is not None else None)
    phase["final"] = final
    phase["unhandled"] = daemon.unhandled_exceptions
    phase["setup_s"] = median(setups)
    return phase


def run(seed: int, seconds: float, trace: bool, scale: str) -> Outcome:
    cpus = split_cpus()
    if cpus is None:
        phase = asyncio.run(session(seed, seconds, trace, scale, None))
    else:
        allowed = os.sched_getaffinity(0)
        os.sched_setaffinity(0, cpus[0])   # threads started later inherit
        try:
            phase = asyncio.run(session(seed, seconds, trace, scale,
                                        cpus[1]))
        finally:
            os.sched_setaffinity(0, allowed)
    stats = phase["stats"]
    received = phase["received"]
    errors = gate(stats, sum(received.values()))
    # A publish fails when its request failed or any of its matched
    # deliveries did not reach the sink by the end of the drain.
    failed_publishes = phase["num_events"] - sum(
        1 for k, count in phase["matched"].items() if received[k] >= count)
    failed_churn = phase["num_churn"] - len(phase["churn"])
    failed = failed_publishes + failed_churn
    delivery = phase["delivery"]
    problem = phase["problem"]
    out = Outcome(
        metrics={
            "setup_s": phase["setup_s"],
            "throughput_per_s": (phase["num_events"] - failed_publishes)
            / phase["phase_s"],
            "op_p50_ms": median(delivery) * 1e3,
            "entries_per_delivery": stats["broker_entries"]
            / stats["delivered"],
        },
        attempted=phase["num_events"] + phase["num_churn"], failed=failed,
        errors=errors,
        notes={"delivery_p50_ms": median(delivery) * 1e3,
               "delivery_p99_ms": nearest_rank(delivery, 99) * 1e3,
               "delivery_samples": len(delivery),
               "churn_op_p50_ms": median(phase["churn"]) * 1e3,
               "churn_op_p99_ms": nearest_rank(phase["churn"], 99) * 1e3,
               "churn_samples": len(phase["churn"]),
               "generator_late_p99_ms": nearest_rank(phase["late"], 99) * 1e3,
               "unhandled_exceptions": phase["unhandled"],
               "reoptimizations_in_window": phase["reopts_in_window"]},
        provenance={"cpus": "shared" if cpus is None else
                    f"benchmark {sorted(cpus[0])}, daemon {sorted(cpus[1])}",
                    "matcher": type(best_matcher(
            problem.subscriptions)).__name__})
    if trace:
        out.layers, out.breakdowns = _layers(phase)
    return out


def _layers(phase):
    payload = json.loads(phase["final"])
    tracer = Tracer()
    tracer.spans = [Span(name, start, end, parent)
                    for name, start, end, parent, _ in payload["spans"]]
    on_loop = {i for i, s in enumerate(payload["spans"]) if s[4]}
    lo, hi = phase["window"]
    window = {i for i, s in enumerate(tracer.spans)
              if s.start >= lo and s.end <= hi}
    rows = {row: 0.0 for row in LAYERS.values()}
    for name, seconds in tracer.self_times(window & on_loop).items():
        rows[LAYERS[name]] += seconds
    wall = hi - lo
    off_loop = tracer.self_times(window - on_loop)
    rows[UNATTRIBUTED] = wall - sum(rows.values())
    calls = Counter(tracer.spans[i].name for i in window)
    overhead = len(window) * _span_cost()
    stats = phase["stats"]
    layers = {row: seconds for row, seconds in rows.items()
              if row != UNATTRIBUTED}
    layers.update({
        "serve.publish.calls": calls["serve.publish"],
        "serve.reopt.s": off_loop.get("serve.reopt", 0.0),
        "serve.reopt.calls": calls["serve.reopt"],
        "serve.delivery_p99_ms": nearest_rank(phase["delivery"], 99) * 1e3,
        "serve.publish_rtt_p50_ms": median(phase["rtt"]) * 1e3,
        "serve.publish_rtt_p99_ms": nearest_rank(phase["rtt"], 99) * 1e3,
        "serve.churn_op_p50_ms": median(phase["churn"]) * 1e3,
        "serve.churn_op_p99_ms": nearest_rank(phase["churn"], 99) * 1e3,
        "serve.generator_late_ms": nearest_rank(phase["late"], 99) * 1e3,
        "serve.unhandled_exceptions": phase["unhandled"],
        "trace.wall_s": wall,
        "trace.unattributed_s": rows[UNATTRIBUTED],
        "trace.overhead_s": overhead,
    })
    for key in STAT_LAYERS:
        layers[f"serve.{key}"] = stats[key]
    return layers, [{"title": "daemon, measurement window (loop thread)",
                     "wall_s": wall, "rows": rows, "overhead_s": overhead,
                     "beside": {"serve.reopt.s (worker thread)":
                                layers["serve.reopt.s"]}}]


def _span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds, measured on a no-op."""
    tracer = Tracer()
    noop = (lambda: None)
    traced = tracer.wrapped(noop, "noop")
    started = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - started
    started = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - started - plain, 0.0) / calls
