"""Command line interface.

    fogsim validate <scenario>
    fogsim run <scenario> [--seed N] [--until MS] [--trace PATH] [--metrics PATH]
    fogsim report <trace>

Exit codes: 0 success, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

from . import errors
from .control import run_scenario
from .kernel import Trace
from .report import Report, report_from_trace
from .scenario import load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fogsim",
        description="Deterministic edge-cloud IoT platform simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="validate a scenario file")
    p_validate.add_argument("scenario", type=Path)

    p_run = sub.add_parser("run", help="run a scenario")
    p_run.add_argument("scenario", type=Path)
    p_run.add_argument("--seed", type=int, default=None,
                       help="label the run with this seed in the trace; "
                            "nothing in a run is random, so only the "
                            "scenario_loaded record changes")
    p_run.add_argument("--until", type=int, default=None,
                       help="stop the clock at this time (ms)")
    p_run.add_argument("--trace", type=Path, default=None,
                       help="write the trace (JSON lines) here")
    p_run.add_argument("--metrics", type=Path, default=None,
                       help="write per-window metrics (CSV) here")

    p_report = sub.add_parser("report", help="recompute a report from a trace")
    p_report.add_argument("trace", type=Path)
    return parser


def _write_metrics(path: Path, trace: Trace) -> None:
    windows = [r for r in trace if r.kind == "metrics_window"]
    nodes = sorted(windows[0].details["utilization"]) if windows else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["window_start", "window_end", "generated_mb",
                         "delivered_mb", "dropped_mb", "uplink_mb",
                         "uplink_ratio"] + [f"util_{n}" for n in nodes])
        for record in windows:
            d = record.details
            ratio = d["uplink_ratio"]
            writer.writerow([d["window_start"], d["window_end"],
                             d["generated_mb"], d["delivered_mb"],
                             d["dropped_mb"], d["uplink_mb"],
                             "" if ratio is None else ratio]
                            + [d["utilization"][n] for n in nodes])


def _decode_trace(data: bytes) -> str:
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        raise errors.MalformedTrace(f"not UTF-8: {exc}") from None


def _print_report(report: Report) -> None:
    for line in report.summary_lines():
        print(line)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "validate":
        try:
            scenario = load_scenario(args.scenario)
        except errors.FogSimError as exc:
            print(f"invalid: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        print(f"ok: {scenario.name} "
              f"({len(scenario.nodes)} nodes, {len(scenario.apps)} apps, "
              f"{len(scenario.script)} script events)")
        return EXIT_OK

    if args.command == "run":
        try:
            scenario = load_scenario(args.scenario)
        except errors.FogSimError as exc:
            print(f"invalid: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            trace, report = run_scenario(scenario, until=args.until,
                                         seed=args.seed)
        except errors.ValidationError as exc:  # --until out of range
            print(f"invalid: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_VALIDATION
        except errors.FogSimError as exc:
            print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        try:
            if args.trace is not None:
                # write the bytes that trace.hash() digests
                Path(args.trace).write_bytes(trace.to_jsonl().encode())
            if args.metrics is not None:
                _write_metrics(args.metrics, trace)
        except OSError as exc:
            print(f"runtime error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        _print_report(report)
        print(f"trace: {len(trace)} records, sha256 {trace.hash()[:16]}")
        return EXIT_OK

    # report
    try:
        data = Path(args.trace).read_bytes()
    except OSError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        report = report_from_trace(Trace.from_jsonl(_decode_trace(data)))
    except errors.FogSimError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _print_report(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
