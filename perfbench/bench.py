"""One benchmark run of one workload: generate the scenario, warm up, repeat
timed passes for a fixed time, check each pass, and summarise the metrics.

Imports fogsim, so `run.py` puts the checkout's `src/` on the path first.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from pathlib import Path

import calibrate
import harness
import workloads
from fogsim import control, scenario
from fogsim.kernel import EventKind
from tracer import PER_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("serialize_s", "s"),
              ("replay_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB")]

# `fogsim run` trace hashes of the fixtures at the commit that added this
# benchmark; printed for comparison, never a gate.
FIXTURE_HASHES = {"roaming": "8b380175453a130c", "scaling": "fa59472aa104b5cb",
                  "partition": "0b22252e7dfbb83d"}

MIN_ROUNDS = 2


class Attempts:
    """Passes attempted and failed; each failure is printed with its reason."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, make_pass, reference: str | None):
        """Run `make_pass()` and check it against the reference digest (its
        own digest when None); returns the pass, or None if it failed."""
        self.attempted += 1
        gc.collect()
        try:
            p = make_pass()
        except Exception as exc:  # a crash of the program is a failed pass
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            problems = harness.check(p, reference or p.digest)
        for problem in problems:
            self.fail(problem)
        return None if problems else p

    def fail(self, problem: str) -> None:
        self.failed += 1
        print(f"FAILED pass {self.attempted}: {problem}")


def traced_pass(path, tracer: Tracer) -> harness.Pass:
    with tracer.installed():
        return harness.run_pass(path, tracer, tracer.wrap_handlers)


def _rounds(seconds: int):
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds += 1
        yield rounds


def _print_fixtures() -> None:
    for name, expected in FIXTURE_HASHES.items():
        path = ROOT / "scenarios" / f"{name}.yaml"
        if not path.is_file():
            print(f"fixture {name}: missing")
            continue
        trace, _ = control.run_scenario(scenario.load_scenario(path))
        digest = trace.hash()[:16]
        same = "same" if digest == expected else f"differs from {expected}"
        print(f"fixture {name}: {len(trace)} records, sha256 {digest} ({same})")


def _print_identity(workload: str, seed: int, p: harness.Pass,
                    handlers: Tracer) -> None:
    summary = p.report.summary
    events = {kind.value: handlers.totals(f"runtime.handler.{kind.value}")[0]
              for kind in EventKind}
    print(f"identity {workload} seed {seed}: trace_sha256 {p.digest} "
          f"trace_records {len(p.trace)}")
    print("  events by kind: " + " ".join(f"{kind}={n}" for kind, n in
                                          sorted(events.items()) if n))
    print(f"  offloads={summary['offloads']} migrations={summary['migrations']} "
          f"total_dropped_mb={summary['total_dropped_mb']}")


def _end_to_end(attempts: Attempts, path, reference: str,
                seconds: int) -> tuple[dict, dict]:
    """Per-pass phase times at the reference host speed (see calibrate.py),
    and the same as measured on the wall clock."""
    normalised, wall = [], []
    for _ in _rounds(seconds):
        p = attempts.run(
            lambda: harness.run_pass(path, gauge=calibrate.gauge), reference)
        if p is not None:
            wall.append(p.times)
            normalised.append(calibrate.normalise(p.times, harness.PHASES, p.gauges))
        del p  # free the trace before the next pass builds one
    names = (*harness.PHASES, "total_s")
    values = {name: [s[name] for s in normalised] for name in names}
    values["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]
    return values, {name: [s[name] for s in wall] for name in names}


def _per_layer(attempts: Attempts, path, reference: str, seconds: int,
               spans_path: Path) -> dict:
    """Traced passes interleaved with untraced ones, whose run_s is the base
    of trace_overhead."""
    untraced_run, traced_run, layers = [], [], []
    for _ in _rounds(seconds):
        p = attempts.run(lambda: harness.run_pass(path), reference)
        if p is not None:
            untraced_run.append(p.times["run_s"])
        del p
        tracer = Tracer()
        p = attempts.run(lambda: traced_pass(path, tracer), reference)
        if p is None:
            continue
        traced_run.append(p.times["run_s"])
        layers.append(tracer.layer_metrics(p.trace, p.text))
        del p
        if any(layers[-1][name] != layers[0][name]
               for name, unit, _ in PER_LAYER if unit == "count"):
            attempts.fail("layer counts differ from the first traced pass")
    tracer.write(spans_path)
    print(f"spans of the last traced pass: {spans_path}")
    values = {name: [m[name] for m in layers] for name, _, _ in PER_LAYER
              if name != "trace_overhead"}
    if untraced_run and traced_run:
        print(f"run_s untraced {statistics.median(untraced_run):.4f} s, "
              f"traced {statistics.median(traced_run):.4f} s")
        values["trace_overhead"] = [statistics.median(traced_run)
                                    / statistics.median(untraced_run)]
    return values


def _distribution(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (f"min {min(values):.4f}  q1 {q1:.4f}  median {q2:.4f}  q3 {q3:.4f}  "
            f"max {max(values):.4f}  n={len(values)}")


def bench(workload: str, seed: int, seconds: int, traced: bool) -> dict:
    """The result object of one run: end-to-end metrics, or per-layer
    metrics when `traced`."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"{workload}-seed{seed}.yaml"
    path.write_text(workloads.scenario_yaml(workload, seed))
    _print_fixtures()

    attempts = Attempts()
    handlers = Tracer()  # traces only the handler map, to count events by kind
    warm = attempts.run(
        lambda: harness.run_pass(path, on_runtime=handlers.wrap_handlers), None)
    if warm is None:
        return {"correct": False, "attempted": attempts.attempted,
                "failed": attempts.failed, "metrics": {}}
    reference = warm.digest
    _print_identity(workload, seed, warm, handlers)
    del warm

    wall = {}
    if traced:
        values = _per_layer(attempts, path, reference, seconds,
                            WORK / f"{workload}-seed{seed}-spans.jsonl")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        values, wall = _end_to_end(attempts, path, reference, seconds)
        units = dict(END_TO_END)
        print("times at the reference host speed, then as measured (wall):")

    metrics = {}
    for name, series in values.items():
        if not series:
            continue
        value = statistics.median(series)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"{name:36s} {value:12.6g} {units[name]:5s}  {_distribution(series)}")
        if name in wall:
            print(f"{'  wall':36s} {'':12s} {'':5s}  {_distribution(wall[name])}")
    print(f"failed_runs {attempts.failed} / attempted_runs {attempts.attempted}")
    return {"correct": attempts.failed == 0 and len(metrics) == len(units),
            "attempted": attempts.attempted, "failed": attempts.failed,
            "metrics": metrics}
