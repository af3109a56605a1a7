"""High-level entry points: validate, run, and report on scenarios."""

from __future__ import annotations

import dataclasses
from pathlib import Path

from .kernel import Trace
from .report import Report, report_from_trace
from .runtime import Runtime
from .scenario import Scenario, load_scenario


def run_scenario(scenario: Scenario, until: int | None = None,
                 seed: int | None = None) -> tuple[Trace, Report]:
    """Execute a validated scenario and derive its report from the trace.
    A `seed` runs a copy of the scenario under that seed."""
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=seed)
    runtime = Runtime(scenario)
    trace = runtime.run(until)
    return trace, report_from_trace(trace)


def run_scenario_file(path: str | Path, until: int | None = None,
                      seed: int | None = None) -> tuple[Trace, Report]:
    return run_scenario(load_scenario(path), until=until, seed=seed)


__all__ = ["run_scenario", "run_scenario_file"]
