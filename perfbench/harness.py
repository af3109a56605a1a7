"""One pass of fogsim's CLI pipeline, timed by phase, and the correctness
checks that every pass must satisfy.

A pass does what `fogsim run --trace` followed by `fogsim report` does:
load and validate the scenario and build the runtime (setup), run to the
horizon (run), serialise and hash the trace (serialize), then parse the
serialised trace and rebuild the report from it (replay).

Every fogsim function is looked up through its defining module or class at
call time, so that wrappers a tracer installs there are the ones called.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass

from fogsim import errors, kernel, report, runtime, scenario

PHASES = ("setup_s", "run_s", "serialize_s", "replay_s")
CONSERVATION_TOLERANCE_MB = 1e-6


@dataclass
class Pass:
    times: dict[str, float]  # each phase and total_s, host seconds
    trace: kernel.Trace
    text: str
    digest: str
    report: report.Report
    gauges: list[float]  # host seconds per calibration unit around the phases


def _no_span(name: str):
    return nullcontext()


def run_pass(path, tracer=None, on_runtime=None, gauge=None) -> Pass:
    """Run the scenario at `path` once. `tracer` records a span per phase;
    `on_runtime(rt)` is called between setup and run, outside both timers;
    `gauge()` is called before, between and after the phases, outside their
    timers, and its results are kept in `Pass.gauges`."""
    span = tracer.span if tracer is not None else _no_span
    clock = time.perf_counter
    gauges = []

    def between():
        if gauge is not None:
            gauges.append(gauge())

    between()
    t0 = clock()
    with span("phase.setup"):
        rt = runtime.Runtime(scenario.load_scenario(path))
    t1 = clock()
    if on_runtime is not None:
        on_runtime(rt)
    between()
    t2 = clock()
    with span("phase.run"):
        trace = rt.run()
    t3 = clock()
    between()
    t4 = clock()
    with span("phase.serialize"):
        text = trace.to_jsonl()
        digest = trace.hash()
    t5 = clock()
    between()
    t6 = clock()
    with span("phase.replay"):
        replayed = report.report_from_trace(kernel.Trace.from_jsonl(text))
    t7 = clock()
    between()
    times = {"setup_s": t1 - t0, "run_s": t3 - t2, "serialize_s": t5 - t4,
             "replay_s": t7 - t6}
    times["total_s"] = sum(times.values())
    return Pass(times, trace, text, digest, replayed, gauges)


def check(p: Pass, reference_digest: str) -> list[str]:
    """Every violated correctness condition of a pass, as readable lines."""
    problems = []
    if p.digest != reference_digest:
        problems.append(f"determinism: trace sha256 {p.digest[:16]} differs "
                        f"from the reference {reference_digest[:16]}")
    try:
        replays = report.report_from_trace(p.trace) == p.report
    except errors.MalformedTrace:
        replays = False
    if not replays:
        problems.append("replay: report of the parsed trace differs from the "
                        "report of the in-memory trace")
    records = p.trace.records
    if not records or records[-1].kind != "run_end":
        problems.append("truncated: the last trace record is not run_end")
    for record in records:
        if record.kind != "flow_window":
            continue
        d = record.details
        gap = d["cum_generated_mb"] - (d["cum_delivered_mb"] + d["cum_dropped_mb"]
                                       + d["buffered_mb"])
        if abs(gap) > CONSERVATION_TOLERANCE_MB:
            problems.append(f"conservation: {record.subject} at {record.time_ms} ms "
                            f"is off by {gap:.3g} MB")
            break
    return problems
