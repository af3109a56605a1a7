#!/usr/bin/env python3
"""fogsim benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Generates the workload's scenario from the seed, runs it once as a warm-up
and reference, then repeats the CLI pipeline (see harness.py) for the given
number of seconds. Every pass is checked for correctness. The last line of
standard output is one JSON object: with --trace 0 it holds the end-to-end
metrics (median over passes, in seconds at a reference host speed, see
calibrate.py); with --trace 1 it holds the per-layer metrics (median over
traced passes, see tracer.py), interleaved with untraced passes to measure
the tracing overhead.

`--workload all` runs each workload in its own process and combines them.
fogsim is imported from the `src/` directory next to this one, and files
are written under `.bench_build/` there.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def bench_all(seed: int, seconds: int, trace: int) -> dict:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "fogsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no fogsim sources under {SRC}")

    if args.workload == "all":
        result = bench_all(args.seed, args.seconds, args.trace)
    else:
        sys.path.insert(0, str(SRC))
        import bench  # imports fogsim, so only once src/ is on the path

        result = bench.bench(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
