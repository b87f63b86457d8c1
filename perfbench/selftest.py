"""Tiny-scale self-test of the benchmark itself.

Checks, for every workload:

* the command's last line has exactly ``correct``, ``attempted``,
  ``failed`` and ``metrics``, and the metric names (traced and untraced)
  equal those declared in ``BENCHMARK.json``;
* each traced breakdown sums to its wall-clock, no layer row is
  negative, and the remainder sits in ``(unattributed)``;
* every correctness gate fires on a planted fault (negative controls);
* without the program under test the command fails without a result.

Run from the repository root (about a minute)::

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import assign  # noqa: E402
import disseminate  # noqa: E402
import serve  # noqa: E402
from run import WORKLOADS, declared_metrics  # noqa: E402
from spans import UNATTRIBUTED  # noqa: E402

SEED = 3
SECONDS = 1
#: Slack on "no row is negative" for serve, whose idle row comes from
#: the daemon's CPU clock (10 ms ticks).
SERVE_SLACK_S = 0.05


def command(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_command(workload: str, trace: int) -> list[str]:
    proc = command(["--workload", workload, "--seed", str(SEED),
                    "--seconds", str(SECONDS), "--trace", str(trace),
                    "--scale", "tiny"], ROOT)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    declared = declared_metrics(bool(trace))
    if list(result["metrics"]) != list(declared):
        problems.append(f"{label}: metric names differ from BENCHMARK.json")
    for name, metric in result["metrics"].items():
        if metric["unit"] != declared.get(name):
            problems.append(f"{label}: {name} has unit {metric['unit']}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{label}: correct={result['correct']} "
                        f"failed={result['failed']}")
    return problems


def check_breakdowns(workload: str) -> list[str]:
    if workload == "assign":
        outcome = assign.run(SECONDS, True, "tiny")
    elif workload == "serve":
        outcome = serve.run(SEED, SECONDS, True, "tiny")
    else:
        outcome = disseminate.run(SEED, SECONDS, True, "tiny",
                                  sharded=workload == "disseminate_sharded")
    slack = SERVE_SLACK_S if workload == "serve" else 1e-9
    problems = []
    if not outcome.breakdowns:
        problems.append(f"{workload}: no traced breakdown")
    for table in outcome.breakdowns:
        rows, wall = table["rows"], table["wall_s"]
        if UNATTRIBUTED not in rows:
            problems.append(f"{workload}: no {UNATTRIBUTED} row")
        if abs(sum(rows.values()) - wall) > 1e-9 * max(wall, 1.0):
            problems.append(f"{workload}: rows sum to {sum(rows.values())}"
                            f" but wall is {wall}")
        negative = [row for row, seconds in rows.items() if seconds < -slack]
        if negative:
            problems.append(f"{workload}: negative rows {negative}")
    return problems


def check_gates() -> list[str]:
    """Each gate passes on a correct output and fires on a planted fault."""
    from repro.verify import corrupt_nesting

    problems = []

    def expect(label: str, errors: list[str], fires: bool) -> None:
        if bool(errors) != fires:
            problems.append(f"gate {label}: expected "
                            f"{'a violation' if fires else 'no violation'}, "
                            f"got {errors}")

    problem = assign.build(0, "tiny")
    solution = assign.solve(problem, SEED)
    expect("assign", assign.gate(problem, solution), False)
    expect("assign/planted nesting",
           assign.gate(problem, corrupt_nesting(problem, solution)), True)

    instance = disseminate.build(0, "tiny")
    events = disseminate.SCALES["tiny"][2]

    def stream():
        return disseminate.job_rng(SEED, 0)

    single = disseminate.engine_job(instance, stream(), events)
    reference = disseminate.simulate(instance, stream(), events)
    deliveries = single.deliveries.copy()
    deliveries[np.argmax(deliveries)] += 1
    lost_one = dataclasses.replace(single, deliveries=deliveries)
    drifted = dataclasses.replace(
        single, total_delivery_latency=single.total_delivery_latency
        * (1 + 1e-6))
    expect("disseminate", disseminate.contract_gate(single, reference, "d"),
           False)
    expect("disseminate/planted delivery",
           disseminate.contract_gate(lost_one, reference, "d"), True)
    expect("disseminate/planted latency",
           disseminate.contract_gate(drifted, reference, "d"), True)

    sharded = disseminate.sharded_job(instance, stream(), events).result
    expect("disseminate_sharded",
           disseminate.identity_gate(sharded, single, "s"), False)
    expect("disseminate_sharded/planted delivery",
           disseminate.identity_gate(lost_one, single, "s"), True)

    stats = {"matched": 10, "delivered": 8, "dropped_backpressure": 1,
             "missed": 1, "request_errors": 0}
    expect("serve", serve.gate(stats, 8), False)
    expect("serve/planted accounting",
           serve.gate(dict(stats, delivered=9), 9), True)
    expect("serve/planted lost delivery", serve.gate(stats, 7), True)
    expect("serve/planted request error",
           serve.gate(dict(stats, request_errors=1), 8), True)
    return problems


def check_without_program() -> list[str]:
    """Only BENCHMARK.json and the benchmark: exit non-zero, no result."""
    with tempfile.TemporaryDirectory(dir=HERE) as scratch:
        bare = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(
                            "__pycache__", Path(scratch).name))
        proc = command(["--workload", "assign", "--seed", "1",
                        "--seconds", "1", "--trace", "0"], bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without the program the command did not fail cleanly"]
    return []


def main() -> int:
    problems = check_gates() + check_without_program()
    for workload in WORKLOADS:
        problems += check_command(workload, 0)
        problems += check_command(workload, 1)
        problems += check_breakdowns(workload)
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
