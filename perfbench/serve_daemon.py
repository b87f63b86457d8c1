"""Benchmark-owned launcher for the ``serve`` workload's daemon.

Builds the ``repro serve`` default instance (googlegroups H/L, 12
brokers, 1,000 subscribers, instance seed 7) and runs a ``ServeDaemon``
with its seed fixed at 7 on an ephemeral port, printing the same
``serving ... on host:port`` line as the CLI.  With ``--trace 1`` it
first wraps the daemon's public entry points in spans and times the
event loop's waits in ``select`` as idle.  On SIGTERM or SIGINT it stops
the daemon and prints the spans as one JSON line.  It also stops when
its standard input closes, so it cannot outlive the process that
started it.  Run it from the repository root::

    PYTHONPATH=src python3 perfbench/serve_daemon.py --trace 1
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import selectors
import signal
import sys
import threading
import time

from repro import GoogleGroupsConfig, generate_google_groups, one_level_problem
from repro.pubsub import BruteForceMatcher, GridMatcher, RTreeMatcher
from repro.serve import ServeConfig, ServeDaemon, protocol
from repro.serve.broker import LiveBroker, RoutingTable

from spans import Tracer

#: ``repro serve`` defaults; ``tiny`` is the self-test's scale.
SCALES = {"full": (1000, 12), "tiny": (120, 4)}
INSTANCE_SEED = 7
REOPT_THRESHOLD = 64


def build_instance(scale: str):
    """The workload (for its event domain) and the daemon's problem."""
    subscribers, brokers = SCALES[scale]
    config = GoogleGroupsConfig(num_subscribers=subscribers,
                                num_brokers=brokers,
                                interest_skew="H", broad_interests="L")
    workload = generate_google_groups(INSTANCE_SEED, config)
    return workload, one_level_problem(workload, alpha=3, max_delay=0.3)


def install(tracer: Tracer) -> None:
    tracer.patch(LiveBroker, "publish", "serve.publish")
    tracer.patch(LiveBroker, "subscribe", "serve.subscribe")
    tracer.patch(LiveBroker, "reoptimize", "serve.reopt")
    tracer.patch(RoutingTable, "route", "serve.route")
    for matcher in (BruteForceMatcher, GridMatcher, RTreeMatcher):
        tracer.patch(matcher, "match_point", "serve.match")
    tracer.patch(protocol, "decode_frame", "serve.frame_read")
    tracer.patch(protocol, "encode_frame", "serve.frame_write")


class IdleSelector(selectors.DefaultSelector):
    """Records each wait of the event loop in ``select`` as an idle span."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self._tracer = tracer

    def select(self, timeout=None):
        started = time.perf_counter()
        try:
            return super().select(timeout)
        finally:
            self._tracer.add_closed("serve.idle", started,
                                    time.perf_counter(), None)


async def serve(daemon: ServeDaemon, problem) -> None:
    await daemon.start()
    print(f"serving {problem} on {daemon.config.host}:{daemon.port}",
          flush=True)
    task = asyncio.current_task()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, task.cancel)

    def parent_gone() -> None:
        # The benchmark holds our stdin open; EOF means it exited without
        # stopping us, so stop rather than linger as an orphan.
        if not os.read(sys.stdin.fileno(), 4096):
            loop.remove_reader(sys.stdin.fileno())
            task.cancel()

    loop.add_reader(sys.stdin.fileno(), parent_gone)
    await daemon.run()   # returns once cancelled, after stopping


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    _workload, problem = build_instance(args.scale)
    tracer = Tracer()
    loop_factory = None
    if args.trace:
        install(tracer)
        loop_factory = (lambda: asyncio.SelectorEventLoop(
            IdleSelector(tracer)))
    daemon = ServeDaemon(problem, ServeConfig(
        port=0, seed=INSTANCE_SEED, reopt_threshold=REOPT_THRESHOLD))
    with asyncio.Runner(loop_factory=loop_factory) as runner:
        runner.run(serve(daemon, problem))
    loop_thread = threading.main_thread().ident
    print(json.dumps({
        "stats": daemon.stats(),
        "spans": [[s.name, s.start, s.end, s.parent, s.thread == loop_thread]
                  for s in tracer.spans],
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
