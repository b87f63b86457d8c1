"""The repository benchmark: one command, four workloads, correctness gates.

Run from the repository root::

    python3 perfbench/run.py --workload assign --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same workload with spans around each layer's public calls and prints the
per-layer metrics and a breakdown that sums to wall-clock.  The metric
names are those of ``BENCHMARK.json``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
The exit code is 1 when a correctness gate fails and 2 when the program
under test cannot be imported.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("assign", "disseminate", "disseminate_sharded", "serve")


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    section = spec["per_layer" if trace else "end_to_end"]
    return {metric["name"]: metric["unit"] for metric in section}


def peak_rss_mb() -> float:
    """The larger of own peak RSS and the largest reaped child's.

    Shard workers are forked, so their RSS already holds the pages they
    share with this process; a sum would count those twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0   # ru_maxrss is in KiB on Linux


def provenance(seed: int, extra: dict) -> dict:
    import numpy
    import scipy
    from repro.bench.harness import run_metadata
    return {"seed": seed, "cpu_count": os.cpu_count(),
            "git_commit": run_metadata()["git_commit"],
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            **extra}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str):
    if name == "assign":
        import assign
        return assign.run(seconds, trace, scale)
    if name == "serve":
        import serve
        return serve.run(seed, seconds, trace, scale)
    import disseminate
    return disseminate.run(seed, seconds, trace, scale,
                           sharded=name == "disseminate_sharded")


def format_value(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name: str, outcome, trace: bool, units: dict[str, str]) -> dict:
    """Print the human-readable tables; return the metrics payload."""
    print(f"provenance: {json.dumps(outcome.provenance, sort_keys=True)}")
    values = outcome.layers if trace else outcome.metrics
    width = max(len(metric) for metric in units)
    print(f"{name}: {'per-layer' if trace else 'end-to-end'} metrics")
    for metric, unit in units.items():
        print(f"  {metric:<{width}}  {format_value(values[metric]):>14} "
              f"{unit}")
    for key, value in outcome.notes.items():
        print(f"  note {key}: {format_value(value)}")
    for table in outcome.breakdowns:
        print(f"breakdown: {table['title']} "
              f"(wall {table['wall_s']:.4f} s, tracing overhead "
              f"{table['overhead_s']:.4f} s)")
        for row, seconds in sorted(table["rows"].items(),
                                   key=lambda item: -item[1]):
            share = seconds / table["wall_s"] if table["wall_s"] else 0.0
            print(f"  {row:<28} {seconds:10.4f} s {share:7.1%}")
        for row, seconds in table.get("beside", {}).items():
            print(f"  {row:<28} {seconds:10.4f} s (not in the sum)")
    for error in outcome.errors:
        print(f"gate violated: {error}", file=sys.stderr)
    return {metric: {"value": float(values[metric]), "unit": unit}
            for metric, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test's instance size")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    trace = bool(args.trace)
    units = declared_metrics(trace)

    outcome = run_workload(args.workload, args.seed, args.seconds, trace,
                           args.scale)
    if trace:
        # A layer the workload does not run reads zero.
        unknown = set(outcome.layers) - set(units)
        outcome.layers = {metric: outcome.layers.get(metric, 0.0)
                          for metric in units}
    else:
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        unknown = set(outcome.metrics) ^ set(units)
    if unknown:
        print(f"error: metrics {sorted(unknown)} disagree with "
              f"BENCHMARK.json", file=sys.stderr)
        return 3
    outcome.provenance = provenance(args.seed, outcome.provenance)
    metrics = report(args.workload, outcome, trace, units)
    correct = not outcome.errors
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}),
          flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
